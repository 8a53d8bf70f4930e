package pkg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rumba/internal/bench"
	"rumba/internal/bundle"
	"rumba/internal/core"
	"rumba/internal/predictor"
)

// Package is a loaded, checksum-verified kernel package.
type Package struct {
	// Dir is the package directory Load read.
	Dir      string
	Manifest Manifest
	Bundle   *bundle.Bundle
	// Spec is the exact-kernel spec the bundle validated against.
	Spec   *bench.Spec
	Corpus *Corpus
}

// BuildConfig parameterises Build.
type BuildConfig struct {
	// Version is the package semantic version ("" selects "0.1.0").
	Version string
	// Quality/Latency are the package's contract; a zero Quality selects
	// TOQ 0.10 (the paper's 90% target output quality) with no shed budget
	// and the default "drifting" drift SLO.
	Quality QualitySpec
	Latency LatencySLO
	// CorpusN is the golden-corpus size; <= 0 selects 256 elements.
	CorpusN int
}

// Build assembles a kernel package from a rumba-train artifact: it writes
// <outDir>/<name>-<version>/{manifest,bundle,corpus}.json, generating the
// golden corpus from the benchmark's deterministic held-out generator. The
// returned package has already been re-Loaded from disk, so a successful
// Build guarantees the artifact round-trips.
func Build(outDir string, b *bundle.Bundle, cfg BuildConfig) (*Package, error) {
	if b == nil {
		return nil, fmt.Errorf("pkg: build needs a bundle")
	}
	spec, err := b.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Version == "" {
		cfg.Version = "0.1.0"
	}
	if cfg.Quality.TOQ == 0 {
		cfg.Quality.TOQ = 0.10
	}
	corpus := GenerateCorpus(spec, cfg.CorpusN)
	m := Manifest{
		FormatVersion: ManifestVersion,
		Name:          spec.Name,
		Version:       cfg.Version,
		Kernel:        spec.Name,
		InDim:         spec.InDim,
		OutDim:        spec.OutDim,
		Quality:       cfg.Quality,
		Latency:       cfg.Latency,
		Bundle:        FileRef{File: BundleFile},
		Corpus:        CorpusRef{FileRef: FileRef{File: CorpusFile}, Elements: len(corpus.Inputs)},
	}

	dir := filepath.Join(outDir, m.DirName())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pkg: %w", err)
	}
	if err := bundle.Save(filepath.Join(dir, BundleFile), b); err != nil {
		return nil, err
	}
	if err := saveCorpus(filepath.Join(dir, CorpusFile), corpus); err != nil {
		return nil, err
	}
	if m.Bundle.SHA256, err = fileSHA256(filepath.Join(dir, BundleFile)); err != nil {
		return nil, err
	}
	if m.Corpus.SHA256, err = fileSHA256(filepath.Join(dir, CorpusFile)); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("pkg: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
		return nil, fmt.Errorf("pkg: %w", err)
	}
	return Load(dir)
}

// Load reads a package directory and verifies everything short of the
// corpus replay: manifest schema, file checksums, bundle deserialisation
// (including the deep shape validation of internal/bundle), corpus schema,
// and the cross-consistency of all three files. The errors are actionable —
// they name the file, the field and the expected value.
func Load(dir string) (*Package, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("pkg: %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("pkg: %s/%s: %w", dir, ManifestFile, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s/%s)", err, dir, ManifestFile)
	}
	bundleData, err := readPinned(dir, "bundle", m.Bundle)
	if err != nil {
		return nil, err
	}
	corpusData, err := readPinned(dir, "corpus", m.Corpus.FileRef)
	if err != nil {
		return nil, err
	}
	b, spec, err := bundle.Parse(bundleData)
	if err != nil {
		return nil, fmt.Errorf("pkg: %s: %w", dir, err)
	}
	if spec.Name != m.Kernel {
		return nil, fmt.Errorf("pkg: %s: manifest kernel %q but bundle trains %q", dir, m.Kernel, spec.Name)
	}
	if spec.InDim != m.InDim || spec.OutDim != m.OutDim {
		return nil, fmt.Errorf("pkg: %s: manifest schema %dx%d but kernel %s has %dx%d",
			dir, m.InDim, m.OutDim, spec.Name, spec.InDim, spec.OutDim)
	}
	corpus, err := parseCorpus(filepath.Join(dir, m.Corpus.File), corpusData)
	if err != nil {
		return nil, err
	}
	if err := corpus.Validate(spec); err != nil {
		return nil, fmt.Errorf("%w (in %s/%s)", err, dir, m.Corpus.File)
	}
	if len(corpus.Inputs) != m.Corpus.Elements {
		return nil, fmt.Errorf("pkg: %s: manifest declares %d corpus elements, %s holds %d",
			dir, m.Corpus.Elements, m.Corpus.File, len(corpus.Inputs))
	}
	return &Package{Dir: dir, Manifest: m, Bundle: b, Spec: spec, Corpus: corpus}, nil
}

// ReplayReport is the outcome of replaying the golden corpus through the
// full Rumba pipeline (accelerator + checker + tuner + recovery).
type ReplayReport struct {
	Elements int `json:"elements"`
	// Fixed counts elements recovery re-executed exactly.
	Fixed int `json:"fixed"`
	// OutputError is the delivered (managed) output error; UncheckedError
	// what the accelerator alone would have delivered.
	OutputError    float64 `json:"outputError"`
	UncheckedError float64 `json:"uncheckedError"`
	// TOQ echoes the bound the replay was held to; Checker names the
	// checker that ran ("none" replays unchecked).
	TOQ     float64 `json:"toq"`
	Checker string  `json:"checker"`
	Pass    bool    `json:"pass"`
}

// DefaultChecker returns the package's default checker instance and name,
// mirroring the serving registry's priority: tree, then linear, then EMA,
// then unchecked. Stateful checkers (EMA) are freshly constructed.
func (p *Package) DefaultChecker() (predictor.Predictor, string) {
	ps := p.Bundle.Predictors()
	switch {
	case ps.Tree != nil:
		return ps.Tree, "tree"
	case ps.Linear != nil:
		return ps.Linear, "linear"
	case ps.EMA != nil:
		return ps.EMA, "ema"
	default:
		return nil, "none"
	}
}

// Replay runs the golden corpus through the Rumba system with the package's
// default checker and a TOQ tuner at the package's bound, and scores the
// delivered outputs against the corpus's exact outputs. It answers the
// deployment question directly: does this artifact meet its own TOQ on its
// own evidence?
func (p *Package) Replay() (*ReplayReport, error) {
	acc, err := p.Bundle.Accelerator()
	if err != nil {
		return nil, err
	}
	checker, checkerName := p.DefaultChecker()
	// The report does not depend on the batch size; 64 is the serving
	// default (server.Options.BatchSize), where the batch kernels pay off.
	cfg := core.Config{Spec: p.Spec, Accel: acc, Checker: checker, BatchSize: 64}
	if checker != nil {
		if cfg.Tuner, err = core.NewTuner(core.ModeTOQ, p.Manifest.Quality.TOQ); err != nil {
			return nil, err
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := sys.Run(p.Corpus.Dataset())
	if err != nil {
		return nil, err
	}
	r := &ReplayReport{
		Elements:       rep.Elements,
		Fixed:          rep.Fixed,
		OutputError:    rep.OutputError,
		UncheckedError: rep.UncheckedError,
		TOQ:            p.Manifest.Quality.TOQ,
		Checker:        checkerName,
	}
	r.Pass = r.OutputError <= r.TOQ
	return r, nil
}

// Validate is the full package gate: Load plus the corpus replay. A package
// whose replay exceeds its own TOQ returns the report alongside an error,
// so callers can print the numbers.
func Validate(dir string) (*Package, *ReplayReport, error) {
	p, err := Load(dir)
	if err != nil {
		return nil, nil, err
	}
	rep, err := p.Replay()
	if err != nil {
		return nil, nil, fmt.Errorf("pkg: %s corpus replay: %w", dir, err)
	}
	if !rep.Pass {
		return p, rep, fmt.Errorf("pkg: %s corpus replay violates its own TOQ: delivered output error %.4f > bound %.4f (unchecked %.4f, %d/%d fixed) — retrain the kernel or relax quality.toq",
			dir, rep.OutputError, rep.TOQ, rep.UncheckedError, rep.Fixed, rep.Elements)
	}
	return p, rep, nil
}

// Install validates pkgDir and copies it into the serve registry directory
// as <registryDir>/<name>-<version>. A same-name package already installed —
// any version — is rejected: the registry serves exactly one version of a
// kernel, and which one wins must be an explicit operator decision.
func Install(registryDir, pkgDir string) (string, error) {
	p, _, err := Validate(pkgDir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(registryDir, 0o755); err != nil {
		return "", fmt.Errorf("pkg: %w", err)
	}
	entries, err := os.ReadDir(registryDir)
	if err != nil {
		return "", fmt.Errorf("pkg: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(registryDir, e.Name(), ManifestFile))
		if err != nil {
			continue // not a package directory
		}
		var existing Manifest
		if json.Unmarshal(data, &existing) != nil {
			continue
		}
		if existing.Name == p.Manifest.Name {
			return "", fmt.Errorf("pkg: registry %s already holds %s %s (in %s) — uninstall it before installing %s",
				registryDir, existing.Name, existing.Version, e.Name(), p.Manifest.Version)
		}
	}
	dest := filepath.Join(registryDir, p.Manifest.DirName())
	if err := os.MkdirAll(dest, 0o755); err != nil {
		return "", fmt.Errorf("pkg: %w", err)
	}
	for _, f := range []string{ManifestFile, p.Manifest.Bundle.File, p.Manifest.Corpus.File} {
		if err := copyFile(filepath.Join(dest, f), filepath.Join(pkgDir, f)); err != nil {
			return "", err
		}
	}
	return dest, nil
}

// readPinned reads one file the manifest pins and checks its bytes against
// the pinned SHA-256. Callers parse the returned bytes, so what passed the
// checksum is exactly what gets parsed; field names the manifest entry in
// errors.
func readPinned(dir, field string, ref FileRef) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, ref.File))
	if err != nil {
		return nil, fmt.Errorf("pkg: %s %s: %w", dir, field, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != ref.SHA256 {
		return nil, fmt.Errorf("pkg: %s/%s checksum mismatch: manifest pins %s, file has %s — the package was modified after build; rebuild it with rumba-pkg build",
			dir, ref.File, ref.SHA256, got)
	}
	return data, nil
}

// fileSHA256 returns the lowercase hex SHA-256 of a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyFile copies src to dst (0644).
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("pkg: %w", err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		return fmt.Errorf("pkg: %w", err)
	}
	return nil
}
