// Package core orchestrates the full study pipeline: generate (or accept)
// a web population, collect weekly snapshots — either by actually crawling
// the synthetic web over HTTP and fingerprinting the pages, or directly
// from generator ground truth at scale — run every analysis of the paper,
// and run the PoC version-validation experiment.
package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"clientres/internal/alexa"
	"clientres/internal/analysis"
	"clientres/internal/crawler"
	"clientres/internal/fingerprint"
	"clientres/internal/poclab"
	"clientres/internal/report"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
	"clientres/internal/wexbundle"
)

// Mode selects how snapshots are collected.
type Mode int

// Collection modes.
const (
	// ModeDirect converts generator ground truth straight into
	// observations — the scale path (validated against ModeCrawl by the
	// pipeline-equivalence tests).
	ModeDirect Mode = iota
	// ModeCrawl serves the synthetic web over a local HTTP listener,
	// crawls every domain every week, and fingerprints the fetched pages —
	// the paper's real pipeline.
	ModeCrawl
)

// Config parameterizes a study run.
type Config struct {
	// Domains, Weeks, Seed parameterize the synthetic population.
	Domains, Weeks int
	Seed           int64
	// Bundling parameterizes the generated population's bundler adoption
	// (webgen.Bundling; the zero value generates no bundles, preserving
	// the historical population byte-for-byte).
	Bundling webgen.Bundling
	// BundleScan turns on bundle-aware fingerprinting (ModeCrawl): the
	// crawler additionally fetches each page's same-site scripts and the
	// fingerprint engine scans their bodies for content signatures,
	// recovering libraries whose <script> URLs carry no identity (bundles).
	// On pages whose URLs already tell the whole story the detection is
	// identical with the scan on or off.
	BundleScan bool
	// Mode selects crawl vs direct collection.
	Mode Mode
	// Workers bounds crawl concurrency (ModeCrawl).
	Workers int
	// FetchTimeout bounds one whole page fetch — every attempt, backoff
	// sleep, and same-site script fetch of one (domain, week) — with a
	// context deadline (ModeCrawl; 0 disables). An expired fetch records
	// the usual Status-0 observation, so a hung host costs one deadline,
	// never a stalled crawl slot.
	FetchTimeout time.Duration
	// Resilience parameterizes the crawl path's per-host politeness
	// limiter, circuit breaker, and weekly retry budget (ModeCrawl; the
	// zero value disables the layer). On a fault-free ecosystem the layer
	// changes no observation: reports are byte-identical with it on or off
	// (proven by the resilience equivalence test).
	Resilience crawler.Resilience
	// ChaosRate, when positive, makes the loopback web server inject
	// deterministic faults — stalls, mid-body resets, truncated bodies,
	// slow-loris drips — into that fraction of (domain, week) responses
	// (ModeCrawl; a fault drill for the resilience layer).
	ChaosRate float64
	// ChaosSeed selects the fault schedule.
	ChaosSeed int64
	// Shards is the number of domain-hash partitions the analysis pipeline
	// folds in parallel (default 1). Each shard folds its partition into a
	// private collector set on its own goroutine, merged after collection;
	// one shard is the serial run through the same loop. The report is
	// byte-identical at every shard count (proven by the shard equivalence
	// tests and the report-digest pins).
	Shards int
	// StorePath, when set, persists every observation to a v3 gzip file
	// — or, with StoreSegments > 1, to a segmented store directory.
	StorePath string
	// StoreSegments selects the segmented store layout: StorePath becomes
	// a directory of StoreSegments per-partition gzip JSONL files plus a
	// manifest (partitioned by the same FNV-1a domain hash as Shards), so
	// both writing and replaying parallelize. 0 or 1 keeps the single-file
	// format. Both layouts replay to byte-identical reports.
	StoreSegments int
	// Checkpoint enables week-granular crash safety for the store: after
	// every completed week each segment is flushed, its gzip member
	// finished, and fsynced, and a checkpoint journal is committed
	// atomically, so a crash loses at most the week in flight. Requires
	// StorePath and forces the segmented layout (StoreSegments 0/1 becomes
	// one segment). Checkpointing changes no observation: a checkpointed
	// run's report is byte-identical to an unjournaled one (proven by the
	// resume equivalence tests).
	Checkpoint bool
	// Resume restarts a crashed checkpointed run from its journal instead
	// of starting over (implies Checkpoint): the store's committed weeks
	// are verified against the checkpoint and replayed into the collectors,
	// any torn tail past the last commit is amputated, and collection
	// continues at the first incomplete week. The resumed run's report is
	// byte-identical to an uninterrupted run of the same configuration.
	Resume bool
	// RecordBundle, when set (ModeCrawl), archives every fetch — landing
	// page and same-site scripts, raw bytes, headers, status, timing —
	// into a web-execution bundle at this directory, sharing the store's
	// segment count, checkpoint cadence, and resume machinery: a killed
	// recording resumes without re-fetching committed weeks. Recording
	// changes no observation — a recorded run's report is byte-identical
	// to an unrecorded one.
	RecordBundle string
	// ReplayBundle, when set (ModeCrawl), replays the crawl from a
	// recorded bundle with zero network: no listener, no web server — the
	// crawler's transport is the mounted bundle, and a fetch the bundle
	// does not hold is an error, never a live request. A replayed run's
	// report is byte-identical to the live run that recorded it.
	ReplayBundle string
	// FingerprintCacheSize bounds the per-shard fingerprint memo cache
	// used on the crawl path (entries; 0 = default, negative = disable).
	// Unchanged page bodies — the common case week over week, per the
	// paper's 531-day mean update delay — skip re-tokenizing and hit the
	// cache instead; results are identical either way.
	FingerprintCacheSize int
	// Progress, when set, receives one line per collected week.
	Progress func(format string, args ...any)
	// SkipPoC skips the version-validation experiment.
	SkipPoC bool

	// startWeek and resumeFrom carry the resume state from Run into the
	// collect paths: collection restarts at startWeek after the committed
	// prefix recorded in resumeFrom has been replayed and verified.
	startWeek  int
	resumeFrom store.Checkpoint
	resuming   bool
}

// runID is the identity stamped into the checkpoint journal; a resume
// refuses a journal written under a different study configuration.
func (cfg Config) runID() store.RunID {
	return store.RunID{Seed: cfg.Seed, Domains: cfg.Domains, Weeks: cfg.Weeks, Mode: int(cfg.Mode)}
}

// Results bundles every collector plus the PoC findings after a run.
type Results struct {
	Eco       *webgen.Ecosystem
	Weeks     int
	Coll      *analysis.Collection
	Libs      *analysis.LibraryStats
	Vuln      *analysis.VulnPrevalence
	Delay     *analysis.UpdateDelay
	SRI       *analysis.SRI
	Flash     *analysis.Flash
	WordPress *analysis.WordPress
	Disc      *analysis.Discontinued
	// Regress measures update roll-backs (the Section 9 future-work
	// extension).
	Regress  *analysis.Regressions
	Findings []poclab.Finding
	// Crawl carries the crawler's resilience counters — attempts, retries,
	// connection failures, breaker trips/sheds, bytes, fetch latency
	// quantiles — after a ModeCrawl run; nil on the direct and replay
	// paths. It is diagnostic output, not report input: WriteReport never
	// reads it, which is what keeps crawl reports byte-comparable across
	// resilience configurations.
	Crawl *crawler.MetricsSnapshot
}

// newResults builds an empty collector set for a study shape.
func newResults(weeks, domains int) *Results {
	return &Results{
		Weeks:     weeks,
		Coll:      analysis.NewCollection(weeks),
		Libs:      analysis.NewLibraryStats(weeks),
		Vuln:      analysis.NewVulnPrevalence(weeks),
		Delay:     analysis.NewUpdateDelay(weeks),
		SRI:       analysis.NewSRI(weeks),
		Flash:     analysis.NewFlash(weeks, domains),
		WordPress: analysis.NewWordPress(weeks),
		Disc:      analysis.NewDiscontinued(weeks),
		Regress:   analysis.NewRegressions(weeks),
	}
}

// runner returns a Runner fanning observations to every collector of r.
func (r *Results) runner() *analysis.Runner {
	return analysis.NewRunner(r.Coll, r.Libs, r.Vuln, r.Delay,
		r.SRI, r.Flash, r.WordPress, r.Disc, r.Regress)
}

// Merge folds another result set's collector aggregates into r. The two
// sets must come from domain-disjoint shards of the same study shape (see
// analysis.Collector); Eco, Weeks, and Findings are left untouched.
func (r *Results) Merge(o *Results) {
	r.Coll.Merge(o.Coll)
	r.Libs.Merge(o.Libs)
	r.Vuln.Merge(o.Vuln)
	r.Delay.Merge(o.Delay)
	r.SRI.Merge(o.SRI)
	r.Flash.Merge(o.Flash)
	r.WordPress.Merge(o.WordPress)
	r.Disc.Merge(o.Disc)
	r.Regress.Merge(o.Regress)
}

// shardOf assigns a domain to one of n shards. It is store.ShardOf — the
// one FNV-1a partition function shared with the segmented store layout,
// so segment partition and collector-shard partition always agree.
func shardOf(domain string, n int) int { return store.ShardOf(domain, n) }

// memo builds the crawl path's per-shard fingerprint cache (nil when
// disabled; a nil Memo degrades to plain fingerprint.Page calls).
func (cfg Config) memo() *fingerprint.Memo {
	if cfg.FingerprintCacheSize < 0 {
		return nil
	}
	return fingerprint.NewMemo(cfg.FingerprintCacheSize)
}

// lockedWrite adapts a sink for concurrent shard writers. The segmented
// writer locks per segment internally — domain-disjoint shards write
// different segments, so they proceed in parallel — while the single-file
// writer needs one global mutex.
func lockedWrite(w store.Sink) func(store.Observation) error {
	if w == nil {
		return nil
	}
	if _, ok := w.(*store.SegmentedWriter); ok {
		return w.Write
	}
	var mu sync.Mutex
	return func(obs store.Observation) error {
		mu.Lock()
		defer mu.Unlock()
		return w.Write(obs)
	}
}

// Run executes the pipeline.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	if cfg.Domains == 0 {
		cfg.Domains = 2000
	}
	if cfg.Weeks == 0 {
		cfg.Weeks = webgen.StudyWeeks
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Progress == nil {
		cfg.Progress = func(string, ...any) {}
	}
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, Bundling: cfg.Bundling})
	res := newResults(cfg.Weeks, cfg.Domains)
	res.Eco = eco

	if cfg.Resume {
		cfg.Checkpoint = true
	}
	if cfg.Checkpoint && cfg.StorePath == "" {
		return nil, fmt.Errorf("core: Checkpoint requires StorePath")
	}
	if (cfg.RecordBundle != "" || cfg.ReplayBundle != "") && cfg.Mode != ModeCrawl {
		return nil, fmt.Errorf("core: bundle record/replay requires ModeCrawl")
	}
	if cfg.RecordBundle != "" && cfg.ReplayBundle != "" {
		return nil, fmt.Errorf("core: RecordBundle and ReplayBundle are mutually exclusive")
	}

	var writer store.Sink
	if cfg.StorePath != "" {
		var w store.Sink
		var err error
		switch {
		case cfg.Resume:
			sw, ck, rerr := store.ResumeSegmented(cfg.StorePath, store.SegmentedOptions{Run: cfg.runID()})
			if rerr != nil {
				return nil, rerr
			}
			cfg.resumeFrom, cfg.resuming = ck, true
			cfg.startWeek = ck.CommittedWeeks
			w = sw
		case cfg.Checkpoint:
			segments := cfg.StoreSegments
			if segments < 1 {
				segments = 1
			}
			w, err = store.CreateSegmentedWith(cfg.StorePath, segments,
				store.SegmentedOptions{Checkpoint: true, Run: cfg.runID()})
		case cfg.StoreSegments > 1:
			w, err = store.CreateSegmented(cfg.StorePath, cfg.StoreSegments)
		default:
			w, err = store.Create(cfg.StorePath)
		}
		if err != nil {
			return nil, err
		}
		writer = w
	}

	var err error
	switch cfg.Mode {
	case ModeCrawl:
		err = collectByCrawl(ctx, cfg, eco, res, writer)
	default:
		err = collectDirect(ctx, cfg, eco, res, writer)
	}
	if writer != nil {
		if err != nil {
			// A failed run must never write a manifest — the directory keeps
			// reading as incomplete, and the last checkpoint (if any) stays
			// authoritative for salvage and resume. Abort is the deliberate
			// crash: close without flushing, losing only uncommitted state.
			_ = writer.Abort()
		} else if cerr := writer.Close(); cerr != nil {
			// A failed close loses the gzip footer — and with it data the
			// readers can never recover; never swallow it.
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}

	if !cfg.SkipPoC {
		res.Findings, err = poclab.RunAll()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// commitWeek makes week (0-based) durable on a checkpointed writer — the
// per-week commit point of a crash-safe run. The caller must have quiesced
// all writes for the week (every collect loop has a natural per-week
// barrier). No-op without Checkpoint.
func commitWeek(cfg Config, writer store.Sink, week int) error {
	if !cfg.Checkpoint || writer == nil {
		return nil
	}
	cw, ok := writer.(interface{ CommitWeek(int) error })
	if !ok {
		return fmt.Errorf("core: Checkpoint set but the store writer cannot commit weeks")
	}
	if err := cw.CommitWeek(week); err != nil {
		return err
	}
	cfg.Progress("week %3d/%d committed", week+1, cfg.Weeks)
	return nil
}

// commitBundleWeek makes a recorded week's bundle records durable. It runs
// before the observation store's commitWeek: the bundle must always be
// able to replay the store's committed prefix, so across a crash the
// bundle may be ahead of the store (harmless — the resumed run re-records
// the week and the duplicates supersede in the replay index) but never
// behind it. No-op without Checkpoint, matching the store's cadence.
func commitBundleWeek(cfg Config, bw *wexbundle.Writer, week int) error {
	if bw == nil || !cfg.Checkpoint {
		return nil
	}
	return bw.CommitWeek(week)
}

// replayCommitted rebuilds collector state from the committed prefix of a
// resumed store, routing each observation to its shard's runner exactly as
// live collection would, and verifies the journal: each segment must replay
// exactly the record count the checkpoint committed. Collection then
// continues at the first incomplete week as if the crash never happened.
func replayCommitted(cfg Config, runners []*analysis.Runner) error {
	ck := cfg.resumeFrom
	for s := 0; s < ck.Segments; s++ {
		n := 0
		if err := store.ForEachSegment(cfg.StorePath, s, func(obs store.Observation) error {
			if obs.Week >= ck.CommittedWeeks {
				return fmt.Errorf("core: resume: segment %d holds week %d past the %d committed",
					s, obs.Week, ck.CommittedWeeks)
			}
			runners[shardOf(obs.Domain, len(runners))].Observe(obs)
			n++
			return nil
		}); err != nil {
			return err
		}
		if n != ck.Counts[s] {
			return fmt.Errorf("core: resume: segment %d replays %d records, checkpoint committed %d",
				s, n, ck.Counts[s])
		}
	}
	cfg.Progress("resumed: %d/%d weeks committed, %d records verified and replayed",
		ck.CommittedWeeks, cfg.Weeks, ck.Total)
	return nil
}

// collectDirect streams ground-truth observations, weeks ascending. The
// sites are partitioned by domain hash into cfg.Shards shards; each shard
// folds its partition into a private collector set on its own goroutine,
// with a barrier per week, and the shards merge into res afterwards. One
// shard is the serial run: one goroutine, one collector set.
func collectDirect(ctx context.Context, cfg Config, eco *webgen.Ecosystem, res *Results, writer store.Sink) error {
	parts := make([][]int, cfg.Shards)
	for i := range eco.Sites {
		s := shardOf(eco.Sites[i].Domain.Name, cfg.Shards)
		parts[s] = append(parts[s], i)
	}
	shardRes := make([]*Results, cfg.Shards)
	runners := make([]*analysis.Runner, cfg.Shards)
	for s := range shardRes {
		shardRes[s] = newResults(cfg.Weeks, cfg.Domains)
		runners[s] = shardRes[s].runner()
	}
	if cfg.resuming {
		if err := replayCommitted(cfg, runners); err != nil {
			return err
		}
	}
	write := lockedWrite(writer)
	errs := make([]error, cfg.Shards)
	for w := cfg.startWeek; w < cfg.Weeks; w++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var wg sync.WaitGroup
		for s := 0; s < cfg.Shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, i := range parts[s] {
					obs := analysis.ObservationFromTruth(eco.Sites[i].Domain, eco.Truth(i, w))
					runners[s].Observe(obs)
					if write != nil {
						if err := write(obs); err != nil {
							errs[s] = err
							return
						}
					}
				}
			}(s)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		cfg.Progress("week %3d/%d collected (direct, %d shards)", w+1, cfg.Weeks, cfg.Shards)
		// The wg barrier above quiesced every shard's writes for the week.
		if err := commitWeek(cfg, writer, w); err != nil {
			return err
		}
	}
	for _, sr := range shardRes {
		res.Merge(sr)
	}
	return nil
}

// ObservationFromPage reduces one crawled page to a store Observation,
// running the fingerprint engine on usable bodies. It is the one reduction
// every crawl loop applies, in-process or on a distributed worker, which is
// what keeps their reports byte-identical. memo may be nil (no caching);
// when non-nil it short-circuits unchanged page bodies to their cached
// Detection and must be private to the calling goroutine (one memo per
// shard).
func ObservationFromPage(byName map[string]alexa.Domain, memo *fingerprint.Memo, p crawler.Page) store.Observation {
	dom := byName[p.Domain]
	var det fingerprint.Detection
	status := p.Status
	if p.Err != nil {
		status = 0
	} else if status == 200 {
		if len(p.Scripts) > 0 {
			scripts := make([]fingerprint.ScriptBody, len(p.Scripts))
			for i, s := range p.Scripts {
				scripts[i] = fingerprint.ScriptBody{URL: s.URL, Body: s.Body}
			}
			det = memo.PageWithScripts(p.Body, p.Domain, scripts)
		} else {
			det = memo.Page(p.Body, p.Domain)
		}
	}
	return analysis.ObservationFromCrawl(dom, p.Week, status, p.Body, det)
}

// collectByCrawl serves the ecosystem on a loopback listener, crawls every
// week, and fingerprints the fetched pages. The pages fan out by domain
// hash to cfg.Shards per-shard analysis workers, so fingerprinting and
// collection run in parallel with the crawl; the per-shard collector sets
// merge into res afterwards. One shard is the serial run: one analysis
// worker behind one channel.
//
// With ReplayBundle no listener or web server exists at all: the crawler's
// transport is the mounted bundle, and the base URL's host resolves
// nowhere — nothing in a replayed run can touch the network. With
// RecordBundle the crawler's transport is wrapped to archive every
// exchange; the bundle commits each week before the observation store
// does, so after a crash between the two commits the bundle is never
// behind the store (wexbundle.Writer.CommitWeek tolerates the re-commit).
func collectByCrawl(ctx context.Context, cfg Config, eco *webgen.Ecosystem, res *Results, writer store.Sink) (retErr error) {
	var wrap func(http.RoundTripper) http.RoundTripper
	var baseURL string
	if cfg.ReplayBundle != "" {
		b, err := wexbundle.Mount(cfg.ReplayBundle)
		if err != nil {
			return err
		}
		wrap = func(http.RoundTripper) http.RoundTripper { return b.Transport() }
		baseURL = "http://wexbundle.invalid"
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ws := webserver.New(eco)
		if cfg.ChaosRate > 0 {
			ws.Chaos = &webserver.Chaos{Seed: cfg.ChaosSeed, Rate: cfg.ChaosRate}
		}
		srv := &http.Server{Handler: ws}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		defer func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
			<-done
		}()
		baseURL = "http://" + ln.Addr().String()
	}

	var bw *wexbundle.Writer
	if cfg.RecordBundle != "" {
		segments := cfg.StoreSegments
		if segments < 1 {
			segments = 1
		}
		opt := wexbundle.Options{
			Segments:   segments,
			Checkpoint: cfg.Checkpoint,
			Run:        cfg.runID(),
			Meta:       wexbundle.Meta{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, BundleScan: cfg.BundleScan},
		}
		if cfg.resuming {
			w, ck, err := wexbundle.Resume(cfg.RecordBundle, opt)
			if err != nil {
				return err
			}
			if ck.CommittedWeeks < cfg.startWeek {
				_ = w.Abort()
				return fmt.Errorf("core: bundle %s committed %d weeks, store committed %d — the bundle cannot replay the store's committed prefix",
					cfg.RecordBundle, ck.CommittedWeeks, cfg.startWeek)
			}
			bw = w
		} else {
			w, err := wexbundle.Create(cfg.RecordBundle, opt)
			if err != nil {
				return err
			}
			bw = w
		}
		defer func() {
			if retErr != nil {
				// Same discipline as the observation store: a failed run
				// never writes a manifest; the last bundle checkpoint stays
				// authoritative for resume and salvage.
				_ = bw.Abort()
			} else if cerr := bw.Close(); cerr != nil {
				retErr = cerr
			}
		}()
		wrap = func(inner http.RoundTripper) http.RoundTripper {
			return &wexbundle.RecordingTransport{Inner: inner, W: bw}
		}
	}

	workers := cfg.Workers
	if workers == 0 {
		workers = 64
	}
	cr := crawler.New(crawler.Config{
		BaseURL:       baseURL,
		Workers:       workers,
		FetchTimeout:  cfg.FetchTimeout,
		Backoff:       crawler.Backoff{Seed: cfg.Seed},
		Resilience:    cfg.Resilience,
		FetchScripts:  cfg.BundleScan,
		WrapTransport: wrap,
	})
	defer func() {
		snap := cr.Metrics()
		res.Crawl = &snap
	}()
	byName := eco.List.ByName()
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}

	shardRes := make([]*Results, cfg.Shards)
	runners := make([]*analysis.Runner, cfg.Shards)
	for s := range shardRes {
		shardRes[s] = newResults(cfg.Weeks, cfg.Domains)
		runners[s] = shardRes[s].runner()
	}
	if cfg.resuming {
		// Replay happens-before the shard workers start, so the runners need
		// no locking here.
		if err := replayCommitted(cfg, runners); err != nil {
			return err
		}
	}
	chans := make([]chan crawler.Page, cfg.Shards)
	errs := make([]error, cfg.Shards)
	write := lockedWrite(writer)
	// pending, on checkpointed runs, is the per-week drain barrier: the
	// shard workers consume pages asynchronously, so CrawlWeek returning
	// does not mean the week's observations reached the store. Every page
	// handed to a channel is Add-ed, every processed page Done-d; waiting
	// on it after CrawlWeek quiesces all writes before CommitWeek.
	var pending *sync.WaitGroup
	if cfg.Checkpoint {
		pending = new(sync.WaitGroup)
	}
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		chans[s] = make(chan crawler.Page, 128)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			runner := runners[s]
			memo := cfg.memo()
			for p := range chans[s] {
				if errs[s] == nil {
					obs := ObservationFromPage(byName, memo, p)
					runner.Observe(obs)
					if write != nil {
						if err := write(obs); err != nil {
							errs[s] = err
						}
					}
				} // else: drain after a failure so the feeder never blocks
				if pending != nil {
					pending.Done()
				}
			}
		}(s)
	}
	crawlErr := func() error {
		for w := cfg.startWeek; w < cfg.Weeks; w++ {
			// CrawlWeek returns only after every page of the week has been
			// handed to the callback, so each domain's pages enter its
			// shard channel in week-ascending order.
			err := cr.CrawlWeek(ctx, w, domains, func(p crawler.Page) {
				if pending != nil {
					pending.Add(1)
				}
				chans[shardOf(p.Domain, cfg.Shards)] <- p
			})
			if err != nil {
				return err
			}
			cfg.Progress("week %3d/%d crawled (%d shards)", w+1, cfg.Weeks, cfg.Shards)
			if pending != nil {
				pending.Wait()
				// The barrier synchronizes the workers' errs writes too.
				for _, e := range errs {
					if e != nil {
						return e
					}
				}
				if err := commitBundleWeek(cfg, bw, w); err != nil {
					return err
				}
				if err := commitWeek(cfg, writer, w); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if crawlErr != nil {
		return crawlErr
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	for _, sr := range shardRes {
		res.Merge(sr)
	}
	return nil
}

// RunFromStore replays a stored observation dataset through the analyses
// (Findings still come from the PoC lab, which is dataset-independent).
// The path may be a single gzip JSONL file or a segmented store directory
// (see store.CreateSegmented); a single file reads as a one-segment store,
// and both layouts replay to byte-identical reports. The observations fold
// into one collector set per shard, partitioned by domain hash and merged
// afterwards — each domain's stored week order is preserved inside its
// shard, so the result is independent of the shard count. Two shapes:
//
//   - segments == shards: segment partition and shard partition are the
//     same FNV-1a domain hash, so segment s holds exactly shard s's
//     domains. Each segment's decoder goroutine feeds its shard's
//     collectors directly: no channels, and the decoder may reuse its
//     buffers because collectors never retain them.
//   - otherwise: each observation is routed to its shard's channel by
//     domain hash (a channel send retains the observation, so this shape
//     clones out of the decoder's reused buffers).
func RunFromStore(path string, weeks, domains, shards int) (*Results, error) {
	if shards < 1 {
		shards = 1
	}
	segments, err := store.Segments(path)
	if err != nil {
		return nil, err
	}
	shardRes := make([]*Results, shards)
	runners := make([]*analysis.Runner, shards)
	for s := range shardRes {
		shardRes[s] = newResults(weeks, domains)
		runners[s] = shardRes[s].runner()
	}
	observe := func(seg int, obs store.Observation) error {
		runners[seg].Observe(obs)
		return nil
	}
	var chans []chan store.Observation
	var wg sync.WaitGroup
	if segments != shards {
		chans = make([]chan store.Observation, shards)
		for s := range chans {
			// The buffer lets the decoders run ahead of a briefly busy
			// collector instead of blocking on every send.
			chans[s] = make(chan store.Observation, 256)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for obs := range chans[s] {
					runners[s].Observe(obs)
				}
			}(s)
		}
		observe = func(_ int, obs store.Observation) error {
			chans[shardOf(obs.Domain, shards)] <- obs.Clone()
			return nil
		}
	}
	err = store.ForEachParallel(path, observe)
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	res := newResults(weeks, domains)
	for _, sr := range shardRes {
		res.Merge(sr)
	}
	res.Findings, err = poclab.RunAll()
	return res, err
}

// WriteReport renders every table and figure of the paper plus the headline
// comparison.
func (r *Results) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "clientres study report — %d weeks\n", r.Weeks)
	report.Table1(w, r.Libs.Table1())
	report.Table2(w, r.Findings, r.Vuln)
	report.Table3(w)
	report.Table4(w, r.WordPress.Table4())
	report.Table5(w, r.Libs)
	report.Table6(w, r.SRI)
	report.Figure2a(w, r.Coll)
	report.Figure2b(w, r.Coll)
	report.Figure3(w, r.Libs, r.Weeks)
	report.Figure4(w, r.Findings, "jquery", "Figure 4: jQuery disclosed vs true vulnerable versions")
	report.Figure5(w, r.Vuln, r.Weeks,
		[]string{"CVE-2020-7656", "CVE-2014-6071", "CVE-2020-11022"},
		"Figure 5: affected sites over time, jQuery advisories (CVE vs TVV)")
	report.Figure6(w, r.Libs, r.Weeks)
	report.Figure7(w, r.Libs, r.Weeks)
	report.Figure8(w, r.Flash, r.Weeks)
	report.Figure9(w, r.WordPress, r.Weeks)
	report.Figure10(w, r.SRI, r.Weeks)
	report.Figure11(w, r.Flash, r.Weeks)
	report.Figure12(w, r.Vuln)
	report.Figure13(w, r.Findings)
	report.Figure14(w, r.Vuln, r.Weeks)
	report.Figure15(w, r.Libs, r.Weeks)
	report.Headlines(w, r.Vuln, r.Delay, r.SRI, r.Flash, r.Disc)
	report.Extensions(w, r.Vuln, r.Regress)
}
