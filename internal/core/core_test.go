package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clientres/internal/store"
)

func TestRunDirect(t *testing.T) {
	res, err := Run(context.Background(), Config{Domains: 300, Weeks: 25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coll.MeanCollected() <= 0 {
		t.Error("nothing collected")
	}
	if len(res.Findings) != 27 {
		t.Errorf("findings = %d, want 27", len(res.Findings))
	}
	var b strings.Builder
	res.WriteReport(&b)
	out := b.String()
	// ("case study" only appears when the study spans the Flash EOL week,
	// which a 25-week test run does not.)
	for _, want := range []string{"Table 1:", "Headline findings", "Extensions"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestCrawlDirectEquivalence is the pipeline-fidelity gate: collecting via
// the real HTTP crawler + fingerprint engine must produce exactly the same
// aggregates as direct ground-truth collection.
func TestCrawlDirectEquivalence(t *testing.T) {
	cfg := Config{Domains: 220, Weeks: 16, Seed: 12, SkipPoC: true}
	direct, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeCrawl
	cfg.Workers = 32
	crawled, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(direct.Coll.CollectedSeries(), crawled.Coll.CollectedSeries()) {
		t.Errorf("collected series differ:\n direct %v\n crawled %v",
			direct.Coll.CollectedSeries(), crawled.Coll.CollectedSeries())
	}
	if !reflect.DeepEqual(direct.Libs.Table1(), crawled.Libs.Table1()) {
		t.Error("Table 1 differs between crawl and direct collection")
	}
	for _, useTVV := range []bool{false, true} {
		d := direct.Vuln.MeanVulnerableShare(useTVV)
		c := crawled.Vuln.MeanVulnerableShare(useTVV)
		if d != c {
			t.Errorf("vulnerable share (tvv=%v): direct %.6f crawled %.6f", useTVV, d, c)
		}
	}
	if direct.SRI.MissingSRIShare() != crawled.SRI.MissingSRIShare() {
		t.Error("SRI share differs")
	}
	dAll, _, _ := direct.Flash.UsageSeries()
	cAll, _, _ := crawled.Flash.UsageSeries()
	if !reflect.DeepEqual(dAll, cAll) {
		t.Error("Flash series differ")
	}
	dDelay := direct.Delay.Result(false, false)
	cDelay := crawled.Delay.Result(false, false)
	if dDelay.Updated != cDelay.Updated || dDelay.MeanDays != cDelay.MeanDays {
		t.Errorf("delay results differ: direct %+v crawled %+v", dDelay, cDelay)
	}
}

func TestRunPersistsAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	cfg := Config{Domains: 150, Weeks: 12, Seed: 3, StorePath: path, SkipPoC: true}
	orig, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := store.ForEach(path, func(store.Observation) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 150*12 {
		t.Errorf("stored observations = %d, want %d", n, 150*12)
	}
	replayed, err := RunFromStore(path, 12, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Libs.Table1(), replayed.Libs.Table1()) {
		t.Error("replayed Table 1 differs from original run")
	}
	if orig.Vuln.MeanVulnerableShare(false) != replayed.Vuln.MeanVulnerableShare(false) {
		t.Error("replayed prevalence differs")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Domains: 50, Weeks: 5, Seed: 1, SkipPoC: true}); err == nil {
		t.Error("cancelled context should error")
	}
}

// TestCancelledSingleFileRunUnreadable: a single-file run that fails
// midway must abort its writer, not seal it. Reading the file back must
// error rather than return the weeks collected so far as a whole store.
func TestCancelledSingleFileRunUnreadable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	weeks := 0
	_, err := Run(ctx, Config{Domains: 30, Weeks: 6, Seed: 5, SkipPoC: true, StorePath: path,
		Progress: func(format string, _ ...any) {
			if strings.Contains(format, "collected") {
				if weeks++; weeks == 3 {
					cancel()
				}
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled after week 3: %v", err)
	}
	if obs, err := store.ReadAll(path); err == nil {
		t.Fatalf("aborted single-file store read back as complete: %d observations", len(obs))
	}
}

func TestProgressCallback(t *testing.T) {
	lines := 0
	_, err := Run(context.Background(), Config{
		Domains: 40, Weeks: 6, Seed: 2, SkipPoC: true,
		Progress: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 6 {
		t.Errorf("progress lines = %d, want 6", lines)
	}
}
