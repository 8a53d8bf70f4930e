package pkg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"unicode/utf8"

	"rumba/internal/bench"
	"rumba/internal/nn"
)

// Corpus is corpus.json: the package's golden input/output set. Inputs are
// kernel inputs; Exact holds the exact kernel's outputs for them, which is
// the reference both the validation replay and the conformance runner score
// delivered outputs against.
type Corpus struct {
	Kernel string      `json:"kernel"`
	InDim  int         `json:"inDim"`
	OutDim int         `json:"outDim"`
	Inputs [][]float64 `json:"inputs"`
	Exact  [][]float64 `json:"exact"`
}

// GenerateCorpus builds a golden corpus for a benchmark: n held-out test
// inputs (the spec's deterministic generator, so identical builds produce
// identical corpora) paired with the exact kernel's outputs.
func GenerateCorpus(spec *bench.Spec, n int) *Corpus {
	if n <= 0 {
		n = 256
	}
	d := spec.GenTest(n)
	return &Corpus{
		Kernel: spec.Name,
		InDim:  spec.InDim,
		OutDim: spec.OutDim,
		Inputs: d.Inputs,
		Exact:  d.Targets,
	}
}

// Validate checks the corpus against the kernel spec: non-empty, every row
// the declared width, every value finite. A corpus that passes feeds the
// replay without surprises.
func (c *Corpus) Validate(spec *bench.Spec) error {
	if c.Kernel != spec.Name {
		return fmt.Errorf("pkg: corpus is for kernel %q, package wants %q", c.Kernel, spec.Name)
	}
	if c.InDim != spec.InDim || c.OutDim != spec.OutDim {
		return fmt.Errorf("pkg: corpus schema %dx%d, kernel %s has %dx%d",
			c.InDim, c.OutDim, spec.Name, spec.InDim, spec.OutDim)
	}
	if len(c.Inputs) == 0 {
		return fmt.Errorf("pkg: corpus has no elements")
	}
	if len(c.Exact) != len(c.Inputs) {
		return fmt.Errorf("pkg: corpus has %d inputs but %d exact outputs", len(c.Inputs), len(c.Exact))
	}
	for i, in := range c.Inputs {
		if len(in) != c.InDim {
			return fmt.Errorf("pkg: corpus input %d has %d values, schema says %d", i, len(in), c.InDim)
		}
		if len(c.Exact[i]) != c.OutDim {
			return fmt.Errorf("pkg: corpus exact output %d has %d values, schema says %d", i, len(c.Exact[i]), c.OutDim)
		}
		for _, v := range in {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pkg: corpus input %d contains a non-finite value", i)
			}
		}
		for _, v := range c.Exact[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pkg: corpus exact output %d contains a non-finite value", i)
			}
		}
	}
	return nil
}

// Dataset exposes the corpus as a supervised dataset for the replay.
func (c *Corpus) Dataset() nn.Dataset {
	return nn.Dataset{Inputs: c.Inputs, Targets: c.Exact}
}

// saveCorpus writes the corpus as indented JSON.
func saveCorpus(path string, c *Corpus) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("pkg: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("pkg: %w", err)
	}
	return nil
}

// loadCorpus reads and decodes a corpus file.
func loadCorpus(path string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pkg: %w", err)
	}
	return parseCorpus(path, data)
}

// parseCorpus decodes corpus.json bytes with a strict scanner of the file's
// fixed schema: one object holding exactly the keys kernel, inDim, outDim,
// inputs and exact, each once. Every document it accepts, encoding/json
// accepts too and decodes to a bit-identical Corpus: numbers are checked
// against the JSON grammar and then converted by the same strconv calls
// encoding/json makes. It rejects some documents encoding/json would take
// (unknown, duplicate or case-folded keys, escapes or invalid UTF-8 in
// kernel, null scalars), none of which saveCorpus writes. Each matrix's rows
// are cap-limited sub-slices of one backing array. path only labels errors.
func parseCorpus(path string, data []byte) (*Corpus, error) {
	s := corpusScanner{data: data}
	c, err := s.corpus()
	if err != nil {
		return nil, fmt.Errorf("pkg: corpus %s: %w", path, err)
	}
	return c, nil
}

// corpusScanner is a cursor over a corpus.json document.
type corpusScanner struct {
	data []byte
	pos  int
}

func (s *corpusScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// next skips JSON whitespace and returns the byte at the cursor without
// consuming it; 0 at end of input.
func (s *corpusScanner) next() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte want after optional whitespace.
func (s *corpusScanner) expect(want byte) error {
	c := s.next()
	if s.pos == len(s.data) {
		return s.errorf("unexpected end of input, want %q", want)
	}
	if c != want {
		return s.errorf("unexpected %q, want %q", c, want)
	}
	s.pos++
	return nil
}

// corpus scans the whole document.
func (s *corpusScanner) corpus() (*Corpus, error) {
	var c Corpus
	seen := map[string]bool{}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	err := s.list('}', func() error {
		key, err := s.str()
		if err != nil {
			return err
		}
		if seen[key] {
			return s.errorf("duplicate key %q", key)
		}
		seen[key] = true
		if err := s.expect(':'); err != nil {
			return err
		}
		switch key {
		case "kernel":
			c.Kernel, err = s.str()
		case "inDim":
			c.InDim, err = s.int()
		case "outDim":
			c.OutDim, err = s.int()
		case "inputs":
			c.Inputs, err = s.matrix()
		case "exact":
			c.Exact, err = s.matrix()
		default:
			return s.errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, key := range []string{"kernel", "inDim", "outDim", "inputs", "exact"} {
		if !seen[key] {
			return nil, fmt.Errorf("missing key %q", key)
		}
	}
	if s.next(); s.pos != len(s.data) {
		return nil, s.errorf("trailing data after the corpus object")
	}
	return &c, nil
}

// list scans the rest of an object or array whose opening byte is
// consumed: zero or more items, each scanned by item, separated by commas
// and closed by end.
func (s *corpusScanner) list(end byte, item func() error) error {
	if s.next() == end {
		s.pos++
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if s.next() != ',' {
			return s.expect(end)
		}
		s.pos++
	}
}

// str scans a string with no escape sequences and no control bytes, whose
// contents must be valid UTF-8.
func (s *corpusScanner) str() (string, error) {
	if err := s.expect('"'); err != nil {
		return "", err
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			v := s.data[start:s.pos]
			if !utf8.Valid(v) {
				return "", s.errorf("string is not valid UTF-8")
			}
			s.pos++
			return string(v), nil
		case c == '\\':
			return "", s.errorf("escape sequences are not supported in corpus strings")
		case c < 0x20:
			return "", s.errorf("control byte %#02x in string", c)
		}
	}
	return "", s.errorf("unterminated string")
}

// number returns the JSON number token at the cursor,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, without consuming it.
func (s *corpusScanner) number() ([]byte, error) {
	s.next()
	d, i := s.data, s.pos
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return nil, s.errorf("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			return nil, s.errorf("invalid number: no digits after the decimal point")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return nil, s.errorf("invalid number: no exponent digits")
		}
	}
	return d[s.pos:i], nil
}

// int scans a number as encoding/json decodes one into an int field.
func (s *corpusScanner) int() (int, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return 0, s.errorf("number %s is not an int", tok)
	}
	s.pos += len(tok)
	return int(v), nil
}

// float scans a number as encoding/json decodes one into a float64. The
// token already matches the grammar, so ParseFloat fails only on overflow.
func (s *corpusScanner) float() (float64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("number %s is out of float64 range", tok)
	}
	s.pos += len(tok)
	return v, nil
}

// null consumes a null literal if one is at the cursor.
func (s *corpusScanner) null() bool {
	if s.next() == 'n' && bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += len("null")
		return true
	}
	return false
}

// matrix scans null or an array of rows, each null or an array of numbers.
// As in encoding/json, null decodes to a nil slice and [] to an empty one.
func (s *corpusScanner) matrix() ([][]float64, error) {
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	// Row bounds are recorded while flat grows and resolved to sub-slices
	// once it stops moving; make, not nil, keeps an empty row non-nil.
	type rowEnd struct {
		end  int
		null bool
	}
	var ends []rowEnd
	flat := make([]float64, 0, 64)
	err := s.list(']', func() error {
		if s.null() {
			ends = append(ends, rowEnd{end: len(flat), null: true})
			return nil
		}
		if err := s.expect('['); err != nil {
			return fmt.Errorf("row %d: want an array or null: %w", len(ends), err)
		}
		err := s.list(']', func() error {
			v, err := s.float()
			flat = append(flat, v)
			return err
		})
		if err != nil {
			return fmt.Errorf("row %d: %w", len(ends), err)
		}
		ends = append(ends, rowEnd{end: len(flat)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(ends))
	start := 0
	for i, e := range ends {
		if !e.null {
			rows[i] = flat[start:e.end:e.end]
		}
		start = e.end
	}
	return rows, nil
}
