package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"rumba/internal/pkg"
)

// LoadPackage runs one kernel package through the full package gate —
// manifest schema, checksums, bundle shape validation, corpus schema, and
// the golden-corpus replay against the package's own TOQ — and registers its
// kernel. A package that fails any part of the gate never reaches the
// registry: rumba-serve refuses to serve an artifact that cannot prove its
// quality contract at startup.
func (r *Registry) LoadPackage(dir string) (*Kernel, error) {
	k, err := validatePackage(dir)
	if err != nil {
		return nil, err
	}
	if err := r.Add(k); err != nil {
		return nil, err
	}
	return k, nil
}

// validatePackage runs dir through the package gate and builds its kernel
// without registering it.
func validatePackage(dir string) (*Kernel, error) {
	p, _, err := pkg.Validate(dir)
	if err != nil {
		return nil, err
	}
	k := kernelFromParts(p.Spec, p.Bundle.Accel, p.Bundle.Predictors())
	k.P99SLOMillis = p.Manifest.Latency.P99Millis
	return k, nil
}

// LoadPackageDir loads every kernel package installed in a registry
// directory (the rumba-pkg install target), returning the number registered.
// The scan is strict: every subdirectory must be a valid package, two
// packages must not provide the same kernel name (the version-conflict error
// names both offending directories), and any gate failure aborts startup — a
// serve registry holds only proven artifacts, so a bad entry is an operator
// error, not something to skip past silently.
//
// Packages are taken in sorted directory order, and the count, the registry
// contents and the error are exactly those of loading them one by one in
// that order, stopping at the first failure. Only the gate runs out of
// order: every manifest is peeked first, the packages before the first
// failed peek are validated concurrently on at most GOMAXPROCS goroutines,
// and they are then registered in order.
func (r *Registry) LoadPackageDir(dir string) (int, error) {
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
	sort.Strings(names) // deterministic load order, so conflict errors are stable
	// Peek at every identity before the expensive gate, so a version
	// conflict is reported as such rather than as a duplicate-kernel
	// registration failure. A package that fails its peek ends the load
	// there, after the packages before it.
	var peekErr error
	loadedBy := map[string]string{}
	for i, name := range names {
		if peekErr = peekPackage(dir, name, loadedBy); peekErr != nil {
			names = names[:i]
			break
		}
	}
	kernels := make([]*Kernel, len(names))
	errs := make([]error, len(names))
	next := make(chan int, len(names))
	for i := range names {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(names)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				kernels[i], errs[i] = validatePackage(filepath.Join(dir, names[i]))
			}
		}()
	}
	wg.Wait()
	for i, k := range kernels {
		if errs[i] != nil {
			return i, errs[i]
		}
		if err := r.Add(k); err != nil {
			return i, err
		}
	}
	return len(names), peekErr
}

// peekPackage reads the manifest of the registry entry name and checks its
// package name against the kernels the entries before it provide, which
// loadedBy maps to their directory; it then records the entry's kernel.
func peekPackage(dir, name string, loadedBy map[string]string) error {
	data, err := os.ReadFile(filepath.Join(dir, name, pkg.ManifestFile))
	if err != nil {
		return fmt.Errorf("server: package registry %s: %s has no readable %s — not a package; remove it or install with rumba-pkg install",
			dir, name, pkg.ManifestFile)
	}
	var m pkg.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("server: package registry %s: %s/%s: %w", dir, name, pkg.ManifestFile, err)
	}
	if prev, dup := loadedBy[m.Name]; dup && m.Name != "" {
		return fmt.Errorf("server: package registry %s: %s and %s both provide kernel %q — the registry serves one version per kernel; uninstall one",
			dir, prev, name, m.Name)
	}
	// A package that loads registers its bundle's kernel, which the gate
	// checks equals the manifest's.
	loadedBy[m.Kernel] = name
	return nil
}
