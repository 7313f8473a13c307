package core

// Report-digest pins: the SHA-256 of WriteReport at small fixed shapes,
// recorded on linux/amd64. The equivalence tests compare collection paths
// with each other; these compare every path with a fixed output, so a
// change that moved all paths alike would still fail here.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"clientres/internal/webgen"
)

const (
	// directReportSHA256 pins the 80-domain × 12-week direct study (seed
	// 31, PoC sweep included).
	directReportSHA256 = "6564a88700c31565c6972e8a97608396bb33e93d8165bc944917146df4d341ae"
	// bundledCrawlReportSHA256 pins the 40-domain × 6-week bundle-scanning
	// crawl over a DefaultBundling(0.3) population (seed 17, PoC skipped).
	bundledCrawlReportSHA256 = "4471290a112b51fd3ae68c1737b1160197d2080882f792aed6655f8584a5f1a0"
)

func checkReportDigest(t *testing.T, name string, res *Results, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(reportOf(t, res)))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: report SHA-256 %s, pinned %s", name, got, want)
	}
}

// TestDirectReportDigestPinned pins the direct study at 1 and 3 shards,
// and the replay of its single-file store and of its 3-segment store at
// 1, 2 and 3 shards.
func TestDirectReportDigestPinned(t *testing.T) {
	dir := t.TempDir()
	base := Config{Domains: 80, Weeks: 12, Seed: 31}
	single := filepath.Join(dir, "obs.jsonl.gz")
	segmented := filepath.Join(dir, "obs.store")

	serial := withShards(base, 1)
	serial.StorePath = single
	sharded := withShards(base, 3)
	sharded.StorePath, sharded.StoreSegments = segmented, 3
	for _, cfg := range []Config{serial, sharded} {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReportDigest(t, fmt.Sprintf("Run shards=%d", cfg.Shards), res, directReportSHA256)
	}
	// Each replay reruns the PoC sweep, the bulk of this test's time; the
	// replays are independent, so they run in parallel.
	for _, path := range []string{single, segmented} {
		for _, shards := range []int{1, 2, 3} {
			name := fmt.Sprintf("RunFromStore %s shards=%d", filepath.Base(path), shards)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := RunFromStore(path, base.Weeks, base.Domains, shards)
				if err != nil {
					t.Fatal(err)
				}
				checkReportDigest(t, name, res, directReportSHA256)
			})
		}
	}
}

// TestBundledCrawlReportDigestPinned pins the bundle-scanning crawl at 1
// and 3 shards, and the zero-network replay of the bundle the serial run
// recorded at 1 and 3 shards.
func TestBundledCrawlReportDigestPinned(t *testing.T) {
	base := Config{Domains: 40, Weeks: 6, Seed: 17, Mode: ModeCrawl, Workers: 16, SkipPoC: true,
		Bundling: webgen.DefaultBundling(0.3), BundleScan: true}
	bundle := filepath.Join(t.TempDir(), "bundle")

	rec := withShards(base, 1)
	rec.RecordBundle = bundle
	for _, cfg := range []Config{rec, withShards(base, 3)} {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReportDigest(t, fmt.Sprintf("Run shards=%d", cfg.Shards), res, bundledCrawlReportSHA256)
	}
	for _, shards := range []int{1, 3} {
		cfg := withShards(base, shards)
		cfg.ReplayBundle = bundle
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReportDigest(t, fmt.Sprintf("replay shards=%d", shards), res, bundledCrawlReportSHA256)
	}
}
