package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"netoblivious/alg"
	"netoblivious/internal/harness"
	"netoblivious/internal/service"
)

// goldenFile is the repository path of the golden hashes; the build
// embeds it, -update-golden rewrites it.
const goldenFile = "bench/testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSet holds the expected outputs: for every serving key (its
// service.Request.Key) the SHA-256 of the canonical JSON of the answer's
// document records, and for every trace-pipe item the SHA-256 of its
// stat report.  Hashes keep the file small; a mismatch names the key.
type goldenSet struct {
	Serve     map[string]string `json:"serve"`
	TracePipe map[string]string `json:"trace_pipe"`
}

func loadGolden() (*goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden hashes: %w", err)
	}
	return &g, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordsHash hashes the canonical JSON encoding of a document's records.
// Records carry no timings, so the hash depends only on the answer.
func recordsHash(recs []harness.Record) (string, error) {
	b, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// checkServe verifies one served document against its golden hash.
func (g *goldenSet) checkServe(key string, recs []harness.Record) error {
	want, ok := g.Serve[key]
	if !ok {
		return fmt.Errorf("%s: no golden hash (rerun with -update-golden)", key)
	}
	got, err := recordsHash(recs)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if got != want {
		return fmt.Errorf("%s: document differs from the golden answer", key)
	}
	return nil
}

// checkTracePipe verifies one stat report against its golden hash.
func (g *goldenSet) checkTracePipe(key, report string) error {
	want, ok := g.TracePipe[key]
	if !ok {
		return fmt.Errorf("%s: no golden hash (rerun with -update-golden)", key)
	}
	if sha([]byte(report)) != want {
		return fmt.Errorf("%s: stat report differs from the golden answer", key)
	}
	return nil
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory holding both go.mod and EXPERIMENTS.md.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
		_, errExp := os.Stat(filepath.Join(dir, "EXPERIMENTS.md"))
		if errMod == nil && errExp == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod and EXPERIMENTS.md) at or above the working directory")
		}
		dir = parent
	}
}

// writeGolden stores g at the repository's golden path.
func writeGolden(g *goldenSet) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		return "", err
	}
	path := filepath.Join(root, goldenFile)
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// updateGolden recomputes every golden hash from the current code: each
// serving key once on a fresh node with unbounded caches, and each
// trace-pipe item through the same pipeline the workload runs.
func updateGolden() (string, error) {
	g := &goldenSet{Serve: map[string]string{}, TracePipe: map[string]string{}}
	srv, err := service.New(service.Config{CacheEntries: -1, TraceEntries: -1})
	if err != nil {
		return "", err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(ts.URL, newHTTPClient(1))
	for _, req := range append(coldSet(alg.All()), warmKeys(alg.All())...) {
		key := req.Key()
		if _, done := g.Serve[key]; done {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		resp, err := c.Analyze(ctx, req)
		cancel()
		if err != nil {
			return "", err
		}
		if resp.Status != string(service.StatusDone) || resp.Document == nil {
			return "", fmt.Errorf("%s: status %q: %s", key, resp.Status, resp.Error)
		}
		if g.Serve[key], err = recordsHash(resp.Document.Records); err != nil {
			return "", err
		}
	}
	s := &session{}
	var bufs [2]bytes.Buffer
	for _, it := range pipeItems {
		report, err := s.pipe(blockEngine(), it, &bufs)
		if err != nil {
			return "", err
		}
		g.TracePipe[it.key()] = sha([]byte(report))
	}
	return writeGolden(g)
}
