package core

// Cross-version replay equivalence: the same observation set stored in
// every on-disk format the store reads — a v1 plain JSONL file, the v3
// single file core.Run writes, a v3 segmented store — must replay to
// byte-identical reports through RunFromStore, serial and sharded. This
// is the compatibility contract that lets old archives keep feeding new
// analysis code.

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"clientres/internal/store"
)

// writeV1File writes obs as a v1 file — one gzip member of plain JSON
// lines, the single-file format store.Create wrote before v3.
func writeV1File(t *testing.T, path string, obs []store.Observation) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	enc := json.NewEncoder(gz)
	for _, o := range obs {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedVersionStoresReplayIdentically(t *testing.T) {
	dir := t.TempDir()
	base := Config{Domains: 120, Weeks: 10, Seed: 17, SkipPoC: true}

	// The reference run writes a v3 single file.
	single := filepath.Join(dir, "obs.jsonl.gz")
	cfg := base
	cfg.StorePath = single
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := RunFromStore(single, base.Weeks, base.Domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, ref)

	obs, err := store.ReadAll(single)
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "obs-v1.jsonl.gz")
	writeV1File(t, v1, obs)
	segDir := filepath.Join(dir, "store-v3")
	w, err := store.CreateSegmented(segDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stores := map[string]string{"v1-file": v1, "v3-file": single, "v3-dir": segDir}

	for name, path := range stores {
		for _, shards := range []int{1, 3, 4} {
			res, err := RunFromStore(path, base.Weeks, base.Domains, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if got := reportOf(t, res); got != want {
				t.Errorf("%s shards=%d: report differs from v3 single-file replay", name, shards)
			}
		}
	}
}
