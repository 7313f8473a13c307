package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clientres/internal/core"
	"clientres/internal/webgen"
	"clientres/perfbench/stats"
)

// Workload shapes. The direct study keeps the paper's full 201 weeks and
// shrinks the population so that several whole studies fit in one run. The
// crawl shape records and replays within a few seconds. A dead host costs
// the crawler a retry backoff sleep, and sleeps only overlap with many
// workers, so the worker count is part of the shape: at 2 workers a crawl
// mostly measures sleeping. On a 2-core machine 8, 16 and 32 workers gave
// the same crawl within about 5% of wall time (16 vs 32 alternating on
// three seeds: 5.38 vs 5.53 s median, 6.9 vs 7.2 s CPU); 16 sits in the
// middle of that flat range.
const (
	directDomains  = 400
	directWeeks    = webgen.StudyWeeks
	crawlDomains   = 200
	crawlWeeks     = 20
	crawlWorkers   = 16
	bundleFraction = 0.3
	// setupRepeats is how many times a cheap set-up is repeated for its
	// median: one takes milliseconds, so a single sample is mostly noise.
	// Archive building is not repeated (see replaySetup).
	setupRepeats = 15
	// minUnits is the fewest units a batch run measures, even past budget.
	minUnits = 3
)

// shards is the collection parallelism: one shard per core.
func shards() int { return runtime.NumCPU() }

func workloads() map[string]workload {
	crawlShape := map[string]any{"domains": crawlDomains, "weeks": crawlWeeks, "shards": shards(),
		"workers": crawlWorkers, "bundle_fraction": bundleFraction}
	ws := []workload{
		{name: "study-direct", why: "the full 201-week study from generator truth: truth generation, collectors, PoC sweep and report; no HTTP, fingerprinting or store",
			shape:   map[string]any{"domains": directDomains, "weeks": directWeeks, "shards": shards()},
			measure: measureDirect, trace: traceDirect},
		{name: "crawl-archive", why: "a live loopback crawl that fingerprints bundles and writes a checkpointed v3 store plus a recorded bundle: render, serve, fetch, scan, store and bundle writes",
			shape:   crawlShape,
			measure: measureCrawl, trace: traceCrawl},
		{name: "archive-replay", why: "zero-network re-audit: replay a recorded bundle crawl and a direct-shape v3 store; the read side of crawl-archive's writes",
			shape:   map[string]any{"bundle": crawlShape, "store_domains": directDomains, "store_weeks": directWeeks},
			measure: measureReplay, trace: traceReplay},
		{name: "audit-serve", why: "the audit service over loopback under open-loop load: cold fingerprinting, advisory matching, cache hits and policy evaluation",
			shape: map[string]any{"pages": servePages, "fixed_rate": serveFixedRate, "limit_ms": ms(serveLimit),
				"conns": shards(), "ladder_base": ladderBase, "repeat_share": repeatShare},
			measure: measureServe, trace: traceServe},
	}
	m := map[string]workload{}
	for _, w := range ws {
		m[w.name] = w
	}
	return m
}

func workloadNames() string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func directConfig(seed int64, shards int) core.Config {
	return core.Config{Domains: directDomains, Weeks: directWeeks, Seed: seed, Mode: core.ModeDirect, Shards: shards}
}

// crawlConfig is the crawl-archive study: a bundled population crawled
// with bundle scanning, into a checkpointed segmented (v3) store and a
// recorded bundle under dir.
func crawlConfig(seed int64, shards int, dir string) core.Config {
	return core.Config{
		Domains: crawlDomains, Weeks: crawlWeeks, Seed: seed,
		Bundling:      webgen.DefaultBundling(bundleFraction),
		BundleScan:    true,
		Mode:          core.ModeCrawl,
		Workers:       crawlWorkers,
		Shards:        shards,
		StorePath:     filepath.Join(dir, "store"),
		StoreSegments: shards,
		Checkpoint:    true,
		RecordBundle:  filepath.Join(dir, "bundle"),
	}
}

// serialCrawlConfig is the crawl-archive study crawled with one collection
// shard and no store or bundle: the reference whose report the sharded,
// checkpointed, recording crawl must reproduce byte for byte.
func serialCrawlConfig(seed int64) core.Config {
	cfg := crawlConfig(seed, 1, "")
	cfg.StorePath, cfg.StoreSegments, cfg.Checkpoint = "", 0, false
	cfg.RecordBundle = ""
	return cfg
}

// replayConfig replays the bundle crawlConfig recorded under dir.
func replayConfig(seed int64, shards int, dir string) core.Config {
	cfg := crawlConfig(seed, shards, dir)
	cfg.StorePath, cfg.StoreSegments, cfg.Checkpoint = "", 0, false
	cfg.RecordBundle = ""
	cfg.ReplayBundle = filepath.Join(dir, "bundle")
	return cfg
}

// directStore is where storeConfig writes under dir, beside the crawl's
// own store and bundle.
func directStore(dir string) string { return filepath.Join(dir, "direct-store") }

// storeConfig is the direct study writing a checkpointed segmented (v3)
// store under dir.
func storeConfig(seed int64, shards int, dir string) core.Config {
	cfg := directConfig(seed, shards)
	cfg.StorePath = directStore(dir)
	cfg.StoreSegments = shards
	cfg.Checkpoint = true
	return cfg
}

// reportDigest renders a result's report and returns its SHA-256 and size.
func reportDigest(res *core.Results) (string, int) {
	var buf bytes.Buffer
	res.WriteReport(&buf)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Len()
}

// timedRun is "Run call to report written" for one core.Run.
func timedRun(cfg core.Config) (unitPart, error) {
	start := time.Now()
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		return unitPart{}, err
	}
	d, _ := reportDigest(res)
	return unitPart{WallS: time.Since(start).Seconds(), Digest: d}, nil
}

// runUnit executes one unit of work inside a child process.
func runUnit(spec unitSpec) (unitResult, error) {
	if spec.Traced {
		return runTracedUnit(spec)
	}
	var part unitPart
	var err error
	switch spec.Op {
	case "direct":
		part, err = timedRun(directConfig(spec.Seed, spec.Shards))
	case "crawl":
		part, err = timedRun(crawlConfig(spec.Seed, spec.Shards, spec.Dir))
		if err == nil {
			return unitResult{WallS: part.WallS, Digest: part.Digest, ArchiveBytes: dirBytes(spec.Dir)}, nil
		}
	case "crawl-serial":
		part, err = timedRun(serialCrawlConfig(spec.Seed))
	case "store":
		part, err = timedRun(storeConfig(spec.Seed, spec.Shards, spec.Dir))
	case "replay":
		return replayUnit(spec)
	default:
		return unitResult{}, fmt.Errorf("unknown op %q", spec.Op)
	}
	if err != nil {
		return unitResult{}, err
	}
	return unitResult{WallS: part.WallS, Digest: part.Digest}, nil
}

// replayUnit is archive-replay's unit: replay the recorded bundle, then
// replay the direct store. Each part's report is digest-checked.
func replayUnit(spec unitSpec) (unitResult, error) {
	b, err := timedRun(replayConfig(spec.Seed, spec.Shards, spec.Dir))
	if err != nil {
		return unitResult{}, fmt.Errorf("bundle replay: %w", err)
	}
	start := time.Now()
	res, err := core.RunFromStore(directStore(spec.Dir), directWeeks, directDomains, spec.Shards)
	if err != nil {
		return unitResult{}, fmt.Errorf("store replay: %w", err)
	}
	d, _ := reportDigest(res)
	s := unitPart{WallS: time.Since(start).Seconds(), Digest: d}
	return unitResult{WallS: b.WallS + s.WallS, Parts: map[string]unitPart{"bundle": b, "store": s}}, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// timeSetup runs fn n times and returns the median wall time in seconds.
func timeSetup(n int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return stats.Median(ts), nil
}

// units runs spec in fresh children until the budget is spent (at least
// minUnits times) and checks each against check. It reports the medians.
func units(r *run, spec unitSpec, budget time.Duration, check func(m measured) error) ([]measured, error) {
	var ms []measured
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start) < budget; n++ {
		if spec.Op == "crawl" {
			d, err := subdir(fmt.Sprintf("crawl-%d", n))
			if err != nil {
				return nil, err
			}
			spec.Dir = d
		}
		r.res.Attempted++
		m, err := spawnUnit(spec)
		if err != nil {
			r.fail("unit %d: %v", n, err)
			if len(ms) == 0 {
				break
			}
			continue
		}
		if err := check(m); err != nil {
			r.fail("unit %d: %v", n, err)
		}
		ms = append(ms, m)
		if spec.Op == "crawl" {
			if err := os.RemoveAll(spec.Dir); err != nil {
				return nil, err
			}
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("no unit completed")
	}
	var wall, cpu, rss []float64
	for _, m := range ms {
		wall = append(wall, m.WallS)
		cpu = append(cpu, m.CPUS)
		rss = append(rss, m.RSSMB)
	}
	r.set("wall_s", stats.Median(wall), "s")
	r.set("cpu_s", stats.Median(cpu), "s")
	r.set("peak_rss_mb", stats.Median(rss), "MB")
	r.note("units %d; wall_s %s", len(ms), fmtList(wall))
	r.note("cpu_s %s", fmtList(cpu))
	r.details["wall_s"], r.details["cpu_s"], r.details["peak_rss_mb"] = wall, cpu, rss
	return ms, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ecoSetup is a batch workload's set-up: generating its ecosystem, timed
// setupRepeats times.
func ecoSetup(r *run, cfg webgen.Config) {
	setup, _ := timeSetup(setupRepeats, func() error {
		webgen.New(cfg)
		return nil
	})
	r.set("setup_s", setup, "s")
}

// digestIs returns a check that a unit's digest equals want.
func digestIs(want, what string) func(measured) error {
	return func(m measured) error {
		if m.Digest != want {
			return fmt.Errorf("report digest %.12s differs from %s %.12s", m.Digest, what, want)
		}
		return nil
	}
}

// directSetup times study-direct's set-up and runs its reference: the
// serial run, whose report sharded collection must reproduce byte for byte.
func directSetup(r *run, seed int64) (string, error) {
	ecoSetup(r, webgen.Config{Domains: directDomains, Weeks: directWeeks, Seed: seed})
	r.res.Attempted++
	ref, err := spawnUnit(unitSpec{Op: "direct", Seed: seed, Shards: 1})
	if err != nil {
		return "", fmt.Errorf("serial reference: %w", err)
	}
	return ref.Digest, nil
}

func measureDirect(r *run, seed int64, budget time.Duration) error {
	ref, err := directSetup(r, seed)
	if err != nil {
		return err
	}
	_, err = units(r, unitSpec{Op: "direct", Seed: seed, Shards: shards()}, budget, digestIs(ref, "the serial run"))
	return err
}

// serialCrawl runs crawl-archive's serial reference and returns its digest.
func serialCrawl(r *run, seed int64) (string, error) {
	r.res.Attempted++
	ref, err := spawnUnit(unitSpec{Op: "crawl-serial", Seed: seed, Shards: 1})
	if err != nil {
		return "", fmt.Errorf("serial reference: %w", err)
	}
	return ref.Digest, nil
}

// crawlSetup times crawl-archive's set-up and runs its serial reference.
func crawlSetup(r *run, seed int64) (string, error) {
	ecoSetup(r, webgen.Config{Domains: crawlDomains, Weeks: crawlWeeks, Seed: seed, Bundling: webgen.DefaultBundling(bundleFraction)})
	return serialCrawl(r, seed)
}

func measureCrawl(r *run, seed int64, budget time.Duration) error {
	serialRef, err := crawlSetup(r, seed)
	if err != nil {
		return err
	}
	var archive []float64
	check := digestIs(serialRef, "the serial crawl")
	_, err = units(r, unitSpec{Op: "crawl", Seed: seed, Shards: shards()}, budget, func(m measured) error {
		archive = append(archive, float64(m.ArchiveBytes)/1e6)
		return check(m)
	})
	if err == nil {
		r.note("archive_mb %s", fmtList(archive))
		r.details["archive_mb"] = archive
	}
	return err
}

// buildArchives records a crawl-archive bundle and writes a study-direct
// store under dir, returning the reports the replays must reproduce. The
// recording crawl is itself gated against serialRef, the serial crawl's
// report; a mismatch counts as a failed unit. It returns the time spent
// building the two archives.
func buildArchives(r *run, seed int64, dir, serialRef string) (bundleRef, storeRef string, took time.Duration, err error) {
	start := time.Now()
	r.res.Attempted++
	c, err := spawnUnit(unitSpec{Op: "crawl", Seed: seed, Shards: shards(), Dir: dir})
	if err != nil {
		return "", "", 0, fmt.Errorf("record bundle: %w", err)
	}
	if err := digestIs(serialRef, "the serial crawl")(c); err != nil {
		r.fail("recording crawl: %v", err)
	}
	r.res.Attempted++
	s, err := spawnUnit(unitSpec{Op: "store", Seed: seed, Shards: shards(), Dir: dir})
	if err != nil {
		return "", "", 0, fmt.Errorf("write store: %w", err)
	}
	return c.Digest, s.Digest, time.Since(start), nil
}

// replaySetup runs the serial crawl reference, then builds the archives
// under dir. Building them costs as much as two other workloads' units, so
// set-up runs once per run, not setupRepeats times; setup_s carries the
// widest bound. The serial reference is not part of set-up.
func replaySetup(r *run, seed int64) (dir, bundleRef, storeRef string, err error) {
	if dir, err = subdir("archive"); err != nil {
		return "", "", "", err
	}
	serialRef, err := serialCrawl(r, seed)
	if err != nil {
		return "", "", "", err
	}
	bundleRef, storeRef, took, err := buildArchives(r, seed, dir, serialRef)
	if err != nil {
		return "", "", "", err
	}
	r.set("setup_s", took.Seconds(), "s")
	r.details["archive_bytes"] = dirBytes(dir)
	return dir, bundleRef, storeRef, nil
}

func measureReplay(r *run, seed int64, budget time.Duration) error {
	dir, bundleRef, storeRef, err := replaySetup(r, seed)
	if err != nil {
		return err
	}
	var bw, sw []float64
	_, err = units(r, unitSpec{Op: "replay", Seed: seed, Shards: shards(), Dir: dir}, budget, func(m measured) error {
		return checkReplay(m, bundleRef, storeRef, &bw, &sw)
	})
	if err == nil {
		r.note("bundle replay wall_s %s; store replay wall_s %s", fmtList(bw), fmtList(sw))
		r.details["bundle_wall_s"], r.details["store_wall_s"] = bw, sw
	}
	return err
}

// checkReplay gates an archive-replay unit: the bundle replay must report
// exactly what the recording crawl reported, the store replay exactly what
// the direct run that wrote the store reported.
func checkReplay(m measured, bundleRef, storeRef string, bw, sw *[]float64) error {
	b, okb := m.Parts["bundle"]
	s, oks := m.Parts["store"]
	if !okb || !oks {
		return fmt.Errorf("replay unit reported parts %v", m.Parts)
	}
	*bw, *sw = append(*bw, b.WallS), append(*sw, s.WallS)
	if b.Digest != bundleRef {
		return fmt.Errorf("bundle replay digest %.12s differs from the recording crawl %.12s", b.Digest, bundleRef)
	}
	if s.Digest != storeRef {
		return fmt.Errorf("store replay digest %.12s differs from the direct run %.12s", s.Digest, storeRef)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
