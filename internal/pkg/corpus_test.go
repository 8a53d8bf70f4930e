package pkg

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// corpusDoc is a well-formed corpus.json body around the given inputs and
// exact matrices.
func corpusDoc(inputs, exact string) string {
	return `{"kernel":"fft","inDim":1,"outDim":2,"inputs":` + inputs + `,"exact":` + exact + `}`
}

// sameCorpus reports whether a and b are identical down to the float64 bit
// patterns and the nil-ness of every matrix and row.
func sameCorpus(a, b *Corpus) bool {
	return a.Kernel == b.Kernel && a.InDim == b.InDim && a.OutDim == b.OutDim &&
		sameMatrix(a.Inputs, b.Inputs) && sameMatrix(a.Exact, b.Exact)
}

func sameMatrix(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestParseCorpusRejectsMalformed(t *testing.T) {
	good := corpusDoc(`[[0.5]]`, `[[1,2]]`)
	cases := map[string]string{
		"empty input":           ``,
		"truncated":             good[:len(good)-10],
		"truncated after key":   `{"kernel"`,
		"trailing data":         good + ` {}`,
		"top-level array":       `[` + good + `]`,
		"unknown key":           strings.Replace(good, `"outDim":2`, `"outDim":2,"extra":1`, 1),
		"case-folded key":       strings.Replace(good, `"kernel"`, `"Kernel"`, 1),
		"duplicate key":         strings.Replace(good, `"outDim":2`, `"outDim":2,"inDim":1`, 1),
		"missing key":           `{"kernel":"fft","inDim":1,"outDim":2,"inputs":[[0.5]]}`,
		"NaN":                   corpusDoc(`[[NaN]]`, `[[1,2]]`),
		"Infinity":              corpusDoc(`[[Infinity]]`, `[[1,2]]`),
		"negative Infinity":     corpusDoc(`[[-Infinity]]`, `[[1,2]]`),
		"leading plus":          corpusDoc(`[[+1]]`, `[[1,2]]`),
		"leading zero":          corpusDoc(`[[01]]`, `[[1,2]]`),
		"bare decimal point":    corpusDoc(`[[1.]]`, `[[1,2]]`),
		"no integer part":       corpusDoc(`[[.5]]`, `[[1,2]]`),
		"empty exponent":        corpusDoc(`[[1e]]`, `[[1,2]]`),
		"signed empty exponent": corpusDoc(`[[1e+]]`, `[[1,2]]`),
		"lone minus":            corpusDoc(`[[-]]`, `[[1,2]]`),
		"hex float":             corpusDoc(`[[0x1p-2]]`, `[[1,2]]`),
		"overflow":              corpusDoc(`[[1e400]]`, `[[1,2]]`),
		"negative overflow":     corpusDoc(`[[0.5]]`, `[[1,-1e400]]`),
		"non-array row":         corpusDoc(`[0.5]`, `[[1,2]]`),
		"object row":            corpusDoc(`[{}]`, `[[1,2]]`),
		"string value":          corpusDoc(`[["0.5"]]`, `[[1,2]]`),
		"missing comma":         corpusDoc(`[[0.5 1]]`, `[[1,2]]`),
		"trailing comma":        corpusDoc(`[[0.5,]]`, `[[1,2]]`),
		"trailing row comma":    corpusDoc(`[[0.5],]`, `[[1,2]]`),
		"matrix not an array":   corpusDoc(`{}`, `[[1,2]]`),
		"non-JSON whitespace":   strings.Replace(good, `[[0.5]]`, "[\f[0.5]]", 1),
		"fractional inDim":      strings.Replace(good, `"inDim":1`, `"inDim":1.0`, 1),
		"exponent inDim":        strings.Replace(good, `"inDim":1`, `"inDim":1e0`, 1),
		"overflowing inDim":     strings.Replace(good, `"inDim":1`, `"inDim":99999999999999999999`, 1),
		"null kernel":           strings.Replace(good, `"fft"`, `null`, 1),
		"control byte":          strings.Replace(good, `"fft"`, "\"f\x01t\"", 1),
		"raw newline":           strings.Replace(good, `"fft"`, "\"f\nt\"", 1),
		"invalid UTF-8":         strings.Replace(good, `"fft"`, "\"f\xfft\"", 1),
		"unterminated string":   `{"kernel":"fft`,
		"escape in kernel":      strings.Replace(good, `"fft"`, `"\u0066ft"`, 1),
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := parseCorpus("bad/corpus.json", []byte(doc))
			if err == nil {
				t.Fatalf("accepted %q as %+v", doc, c)
			}
			if !strings.Contains(err.Error(), "corpus bad/corpus.json") {
				t.Fatalf("error %q does not name the corpus file", err)
			}
		})
	}
}

// TestParseCorpusNullAndEmptyMatchEncodingJSON pins the nil/empty
// distinctions saveCorpus can produce (a nil matrix or row marshals to null,
// an empty one to []) to what encoding/json decodes them to.
func TestParseCorpusNullAndEmptyMatchEncodingJSON(t *testing.T) {
	docs := []string{
		corpusDoc(`null`, `null`),
		corpusDoc(`[]`, `[ ]`),
		corpusDoc(`[null, [], [ ], [-0], [0.5,1e-400]]`, "[\n  null,\n  [\r\n1.5 ,\t-2E+3 ] ]"),
		corpusDoc(`[[5e-324, 1.7976931348623157e308, -0.0, 123456789012345678901234567890]]`, `[]`),
	}
	for _, doc := range docs {
		got, err := parseCorpus("corpus.json", []byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		var want Corpus
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !sameCorpus(got, &want) {
			t.Fatalf("%s: scanner decoded %#v, encoding/json %#v", doc, got, want)
		}
	}
}

// TestParseCorpusRowsShareOneArray checks the layout promise: each matrix's
// rows are consecutive, cap-limited windows of one backing array.
func TestParseCorpusRowsShareOneArray(t *testing.T) {
	c, err := parseCorpus("corpus.json", []byte(corpusDoc(`[[1],[2],[3]]`, `[[1,2],[3,4]]`)))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range [][][]float64{c.Inputs, c.Exact} {
		for i, row := range m {
			if cap(row) != len(row) {
				t.Fatalf("row %d has cap %d beyond its %d values", i, cap(row), len(row))
			}
		}
		for i := 1; i < len(m); i++ {
			prev, row := m[i-1], m[i]
			if unsafe.Pointer(&row[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) {
				t.Fatalf("row %d does not follow row %d in one array", i, i-1)
			}
		}
	}
}

// FuzzDecodeCorpus holds the scanner to its contract with encoding/json in
// both directions. Any document it accepts, encoding/json accepts and
// decodes bit-identically. And a corpus built from the fuzzed bytes,
// written by saveCorpus, always parses back to itself.
func FuzzDecodeCorpus(f *testing.F) {
	f.Add([]byte(corpusDoc(`[[0.5],[0.25]]`, `[[1,2],[3,4]]`)))
	f.Add([]byte(corpusDoc(`[null,[]]`, `null`)))
	f.Add([]byte(corpusDoc(`[[-0]]`, `[[1e-400,5e-324]]`)))
	f.Add([]byte(corpusDoc(`[[1e400]]`, `[[01]]`)))
	f.Add([]byte(`{"kernel":"fft","inDim":1,"outDim":2,"inputs":[[0.5]],"exact":[[1,2]]} x`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, doc []byte) {
		if c, err := parseCorpus("fuzz.json", doc); err == nil {
			var want Corpus
			if err := json.Unmarshal(doc, &want); err != nil {
				t.Fatalf("scanner accepted a document encoding/json rejects (%v): %q", err, doc)
			}
			if !sameCorpus(c, &want) {
				t.Fatalf("scanner decoded %#v, encoding/json %#v, from %q", c, want, doc)
			}
		}

		orig := corpusFromBytes(doc)
		path := filepath.Join(dir, "corpus.json")
		if err := saveCorpus(path, orig); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseCorpus(path, data)
		if err != nil {
			t.Fatalf("scanner rejected what saveCorpus wrote: %v", err)
		}
		if !sameCorpus(got, orig) {
			t.Fatalf("round trip changed the corpus: wrote %#v, read %#v", orig, got)
		}
	})
}

// corpusFromBytes builds a corpus from arbitrary bytes: the first byte
// shapes it (row width and which rows are nil or empty), the rest are read
// as float64 bit patterns, non-finite ones mapped to their exponent-free
// remainder so every value is one saveCorpus can write.
func corpusFromBytes(b []byte) *Corpus {
	c := &Corpus{Kernel: "fft", InDim: 1, OutDim: 2}
	if len(b) == 0 {
		return c
	}
	shape := b[0]
	width := int(shape%4) + 1
	var vals []float64
	for rest := b[1:]; len(rest) >= 8; rest = rest[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.Float64frombits(binary.LittleEndian.Uint64(rest) &^ (0x7ff << 52))
		}
		vals = append(vals, v)
	}
	for i := 0; len(vals) > 0; i++ {
		n := min(width, len(vals))
		switch {
		case shape&0x10 != 0 && i%3 == 1:
			c.Inputs = append(c.Inputs, nil)
		case shape&0x20 != 0 && i%3 == 2:
			c.Inputs = append(c.Inputs, []float64{})
		default:
			c.Inputs = append(c.Inputs, vals[:n:n])
			vals = vals[n:]
		}
		c.Exact = append(c.Exact, []float64{float64(i), -float64(i) / 3})
	}
	if shape&0x40 != 0 {
		c.Exact = [][]float64{}
	}
	return c
}
