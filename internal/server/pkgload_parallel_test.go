package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rumba/internal/accel"
	"rumba/internal/bench"
	"rumba/internal/bundle"
	"rumba/internal/pkg"
	"rumba/internal/trainer"
)

// loadPackageDirSequential is a test-only copy of LoadPackageDir before its
// gate ran concurrently: peek one manifest, validate and register that
// package, then move to the next. The parallel loader must return the same
// count and error and leave the same registry.
func loadPackageDirSequential(r *Registry, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("server: package registry: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	loadedBy := map[string]string{}
	n := 0
	for _, name := range names {
		sub := filepath.Join(dir, name)
		data, err := os.ReadFile(filepath.Join(sub, pkg.ManifestFile))
		if err != nil {
			return n, fmt.Errorf("server: package registry %s: %s has no readable %s — not a package; remove it or install with rumba-pkg install",
				dir, name, pkg.ManifestFile)
		}
		var m pkg.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return n, fmt.Errorf("server: package registry %s: %s/%s: %w", dir, name, pkg.ManifestFile, err)
		}
		if prev, dup := loadedBy[m.Name]; dup && m.Name != "" {
			return n, fmt.Errorf("server: package registry %s: %s and %s both provide kernel %q — the registry serves one version per kernel; uninstall one",
				dir, prev, name, m.Name)
		}
		k, err := r.LoadPackage(sub)
		if err != nil {
			return n, err
		}
		loadedBy[k.Name] = name
		n++
	}
	return n, nil
}

// smallBundle trains a quick artifact for one benchmark.
func smallBundle(t *testing.T, name string) *bundle.Bundle {
	t.Helper()
	spec, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	train := spec.GenTrain(400)
	cfg := trainer.DefaultAccelTrainConfig(name)
	cfg.NN.Epochs = 10
	acfg, err := trainer.TrainAccelerator(spec, spec.RumbaTopo, spec.RumbaFeatures, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accel.New(acfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := trainer.TrainPredictors(spec, train, trainer.Observe(spec, acc, train))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(spec, acfg, preds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadPackageDirParallelMatchesSequential runs registry directories
// whose failures sit at different points of the sorted order through the
// concurrent loader and the sequential reference, and requires the same
// count, error and registry contents from both — and the documented ones.
func TestLoadPackageDirParallelMatchesSequential(t *testing.T) {
	bundles := map[string]*bundle.Bundle{
		"fft":        trainedBundle(t),
		"inversek2j": smallBundle(t, "inversek2j"),
		"sobel":      smallBundle(t, "sobel"),
	}
	// Every package is built once into a staging area; cases copy them into
	// registry entries whose directory names fix the load order.
	stage := t.TempDir()
	built := map[string]string{}
	for kernel, b := range bundles {
		p, err := pkg.Build(filepath.Join(stage, kernel), b, pkg.BuildConfig{Quality: pkg.QualitySpec{TOQ: 1}, CorpusN: 40})
		if err != nil {
			t.Fatal(err)
		}
		built[kernel] = p.Dir
	}

	// entry kinds: "ok:<kernel>" a valid package; "bad:<kernel>" a package
	// renamed "bad-<entry>" whose bundle fails its checksum; "junk" a
	// directory without a manifest.
	cases := []struct {
		name    string
		entries [][2]string // directory name, entry kind
		wantN   int
		wantErr string // fragment; "" expects success
	}{
		{
			name:    "clean directory registers all three",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "ok:inversek2j"}, {"c", "ok:sobel"}},
			wantN:   3,
		},
		{
			name:    "two bad packages: the first in sorted order is reported",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "bad:sobel"}, {"c", "ok:inversek2j"}, {"d", "bad:fft"}},
			wantN:   1,
			wantErr: "/b/bundle.json checksum mismatch",
		},
		{
			name:    "a bad first package registers nothing",
			entries: [][2]string{{"a", "bad:fft"}, {"b", "ok:sobel"}, {"c", "bad:inversek2j"}},
			wantN:   0,
			wantErr: "/a/bundle.json checksum mismatch",
		},
		{
			name:    "a conflict after a bad package still reports the bad package",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "bad:sobel"}, {"c", "ok:fft"}},
			wantN:   1,
			wantErr: "/b/bundle.json checksum mismatch",
		},
		{
			name:    "a non-package after a bad package still reports the bad package",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "bad:sobel"}, {"c", "junk"}},
			wantN:   1,
			wantErr: "/b/bundle.json checksum mismatch",
		},
		{
			name:    "a conflict before a bad package reports the conflict",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "ok:inversek2j"}, {"c", "ok:fft"}, {"d", "bad:sobel"}},
			wantN:   2,
			wantErr: `a and c both provide kernel "fft"`,
		},
		{
			name:    "a non-package before a bad package reports the non-package",
			entries: [][2]string{{"a", "ok:fft"}, {"b", "junk"}, {"c", "bad:sobel"}},
			wantN:   1,
			wantErr: "b has no readable manifest.json",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, e := range tc.entries {
				makeEntry(t, filepath.Join(dir, e[0]), e[1], built)
			}
			par, seq := NewKernelRegistry(), NewKernelRegistry()
			n, err := par.LoadPackageDir(dir)
			seqN, seqErr := loadPackageDirSequential(seq, dir)
			if n != seqN || fmt.Sprint(err) != fmt.Sprint(seqErr) || !reflect.DeepEqual(par.Names(), seq.Names()) {
				t.Fatalf("parallel load = (%d, %v, %v), sequential = (%d, %v, %v)",
					n, err, par.Names(), seqN, seqErr, seq.Names())
			}
			if n != tc.wantN || len(par.Names()) != tc.wantN {
				t.Fatalf("registered %d (%v), want %d", n, par.Names(), tc.wantN)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("LoadPackageDir: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// makeEntry creates one registry entry of the given kind at dst from the
// staged packages.
func makeEntry(t *testing.T, dst, kind string, built map[string]string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if kind == "junk" {
		return
	}
	bad, kernel, _ := strings.Cut(kind, ":")
	for _, f := range []string{pkg.ManifestFile, pkg.BundleFile, pkg.CorpusFile} {
		data, err := os.ReadFile(filepath.Join(built[kernel], f))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case bad == "bad" && f == pkg.BundleFile:
			data[len(data)/2] ^= 0xff
		case bad == "bad" && f == pkg.ManifestFile:
			// A distinct package name, so the entry is not a version
			// conflict with the real package of the same kernel.
			var m pkg.Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m.Name = "bad-" + filepath.Base(dst)
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
