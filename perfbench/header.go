package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// header is printed on every output: what ran, on which code, on what
// machine.
func header(cfg config) []string {
	budget := "full"
	if cfg.quick {
		budget = "quick"
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%d budgets=%s",
			cfg.workload, cfg.seed, cfg.seconds, trace, budget),
		"revision: " + gitRevision(cfg.root),
		"source: " + sourceDigest(cfg.root),
		fmt.Sprintf("nproc: %d GOMAXPROCS: %d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"cpu: " + cpuModel(),
		"go: " + runtime.Version(),
	}
}

// gitRevision reads HEAD from the repository's .git directory without
// running git; a checkout without one reports "none".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return ref
}

// sourceDigest is a SHA-256 over every Go source and module file under
// root, so a run names the code it measured even where there is no git
// metadata. Build output directories and hidden directories are skipped.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		in, err := os.Open(f)
		if err != nil {
			return "unknown (" + err.Error() + ")"
		}
		_, err = io.Copy(h, in)
		in.Close()
		if err != nil {
			return "unknown (" + err.Error() + ")"
		}
	}
	return fmt.Sprintf("sha256:%x (%d files)", h.Sum(nil)[:8], len(files))
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
