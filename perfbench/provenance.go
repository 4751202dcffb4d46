package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance stamps a result with what produced it.
type provenance struct {
	GitRevision string `json:"git_revision"`
	// SourceSHA256 digests the repository's Go sources and module files,
	// so a run in a checkout without .git still names its code.
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	Host         string         `json:"host"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	Workers      map[string]int `json:"workers"`
}

func provenanceOf(cfg config) provenance {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return provenance{
		GitRevision:  gitRevision("."),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Host:         host,
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		// The program runs at its defaults: core worker counts 0 resolve
		// to NumCPU, and the service admits two engine runs at once.
		Workers: map[string]int{
			"core.workers":           runtime.NumCPU(),
			"core.cover_workers":     runtime.NumCPU(),
			"service.max_concurrent": 2,
			"service.batch_workers":  4,
			"clients":                2,
		},
	}
}

// gitRevision resolves HEAD from the .git directory under root without
// running git; it reports "unknown" outside a git checkout.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root
// (paths and contents, in path order), skipping .git and the build
// directory.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == ".git" || name == buildDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
