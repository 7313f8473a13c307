package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/fingerprint"
	"clientres/internal/poclab"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
	"clientres/internal/wexbundle"
	"clientres/perfbench/stats"
)

// The traced run re-composes each pipeline from the layers' exported
// functions, in the order core.Run composes them, and times every call
// from the outside. Work is attributed per lane: a lane is one goroutine
// the traced pipeline owns, its time is its life minus the time it spends
// blocked on other lanes, and a layer's self time is the time of the calls
// into that layer on lanes. Coverage is the share of lane time that some
// layer accounts for. Server handlers and transports run inside the
// crawler's and the server's own goroutines; their times are layer
// metrics but not lane time.

// collectorNames are the collectors core.Run composes, in its order.
var collectorNames = []string{"collection", "libraries", "vuln-prevalence", "update-delay",
	"sri", "flash", "wordpress", "discontinued", "regressions"}

// layerUnits lists every per-layer metric with its unit; a traced run
// reports all of them, zero where the workload does not use the layer.
func layerUnits() map[string]string {
	u := map[string]string{
		"webgen.new_s": "s", "webgen.truth_s": "s", "webgen.render_s": "s",
		"webserver.serve_s": "s", "webserver.requests": "count", "webserver.bytes": "B",
		"crawler.roundtrip_s": "s", "crawler.backoff_wait_s": "s", "crawler.page_ms_p50": "ms",
		"crawler.page_ms_p99": "ms", "crawler.attempts": "count", "crawler.retries": "count",
		"crawler.success_ratio": "ratio",
		"fingerprint.detect_s":  "s", "fingerprint.memo_hit_ratio": "ratio",
		"fingerprint.scan_hit_ratio": "ratio", "fingerprint.scanned_mb": "MB",
		"analysis.observations": "count", "analysis.observe_s": "s", "analysis.from_truth_s": "s",
		"analysis.from_crawl_s": "s", "analysis.merge_s": "s",
		"store.write_s": "s", "store.commit_s": "s", "store.commits": "count",
		"store.bytes_written": "B", "store.read_s": "s", "store.records_read": "count",
		"wexbundle.append_s": "s", "wexbundle.commit_s": "s", "wexbundle.bytes": "B",
		"wexbundle.mount_s": "s", "wexbundle.replay_s": "s",
		"poclab.run_all_s": "s", "report.write_s": "s", "report.bytes": "B",
		"service.audit_ms_p50": "ms", "service.audit_ms_p99": "ms", "service.overhead_ms": "ms",
		"service.cache_hit_ratio": "ratio", "service.shed": "count", "service.match_s": "s",
		"policy.eval_s": "s",
		"audit_p50_ms":  "ms", "audit_p99_ms": "ms", "audit_max_rps": "1/s",
		"audit_late_ms_p99": "ms", "archive_mb": "MB",
		"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
		"trace.coverage": "ratio", "trace.digest_match": "count",
	}
	for _, c := range collectorNames {
		u["analysis."+c+".observe_s"] = "s"
	}
	return u
}

// tracer gathers one traced run's spans and counts.
type tracer struct {
	mu       sync.Mutex
	self     map[string]time.Duration // self time per layer, on lanes
	laneTime time.Duration
	vals     map[string]float64 // counts, ratios and off-lane times
	pages    []float64          // crawler page times, ms

	// Off-lane transport and handler times (atomic: many goroutines).
	outerRT, netRT, bodyRead, serveTotal atomic.Int64
	requests, bytesOut                   atomic.Int64
	paths                                []string // served request paths, under mu
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, vals: map[string]float64{}}
}

// lane is one owned goroutine's span recorder; it is not shared.
type lane struct {
	t     *tracer
	start time.Time
	idle  time.Duration
	self  map[string]time.Duration
	pages []float64
	obs   int
}

func (t *tracer) lane() *lane {
	return &lane{t: t, start: time.Now(), self: map[string]time.Duration{}}
}

// span charges the time since start to layer and returns the end time, so
// consecutive calls chain without gaps.
func (l *lane) span(layer string, start time.Time) time.Time {
	now := time.Now()
	l.self[layer] += now.Sub(start)
	return now
}

// wait marks the time since start as blocked on another lane.
func (l *lane) wait(start time.Time) time.Time {
	now := time.Now()
	l.idle += now.Sub(start)
	return now
}

// observe feeds obs to each collector, timing each one.
func (l *lane) observe(cs []analysis.Collector, obs store.Observation, t time.Time) time.Time {
	for i, c := range cs {
		c.Observe(obs)
		t = l.span("analysis."+collectorNames[i]+".observe_s", t)
	}
	l.obs++
	return t
}

// end folds the lane into the tracer.
func (l *lane) end() {
	busy := time.Since(l.start) - l.idle
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	l.t.laneTime += busy
	for k, v := range l.self {
		l.t.self[k] += v
	}
	l.t.pages = append(l.t.pages, l.pages...)
	l.t.vals["analysis.observations"] += float64(l.obs)
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

// newResults is an empty collector set of a study shape, as core builds it.
func newResults(weeks, domains int) *core.Results {
	return &core.Results{
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

// collectorsOf lists r's collectors in collectorNames order.
func collectorsOf(r *core.Results) []analysis.Collector {
	return []analysis.Collector{r.Coll, r.Libs, r.Vuln, r.Delay, r.SRI, r.Flash, r.WordPress, r.Disc, r.Regress}
}

// shardSets builds n per-shard result sets and their collector lists.
func shardSets(n, weeks, domains int) ([]*core.Results, [][]analysis.Collector) {
	rs := make([]*core.Results, n)
	cs := make([][]analysis.Collector, n)
	for s := range rs {
		rs[s] = newResults(weeks, domains)
		cs[s] = collectorsOf(rs[s])
	}
	return rs, cs
}

// mergeInto merges shard results into a fresh result set.
func mergeInto(l *lane, shardRes []*core.Results, weeks, domains int) *core.Results {
	t := time.Now()
	res := newResults(weeks, domains)
	for _, sr := range shardRes {
		res.Merge(sr)
	}
	l.span("analysis.merge_s", t)
	return res
}

// finish runs the PoC sweep and writes the report, returning its digest.
func finish(l *lane, res *core.Results) (string, error) {
	t := time.Now()
	findings, err := poclab.RunAll()
	if err != nil {
		return "", err
	}
	res.Findings = findings
	t = l.span("poclab.run_all_s", t)
	var buf bytes.Buffer
	res.WriteReport(&buf)
	l.span("report.write_s", t)
	l.t.add("report.bytes", float64(buf.Len()))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// runTracedUnit runs one traced unit inside a child process.
func runTracedUnit(spec unitSpec) (unitResult, error) {
	tr := newTracer()
	start := time.Now()
	var out unitResult
	var err error
	var eco *webgen.Ecosystem
	switch spec.Op {
	case "direct":
		out.Digest, err = tracedDirect(tr, directConfig(spec.Seed, spec.Shards))
	case "crawl":
		out.Digest, eco, err = tracedCrawl(tr, crawlConfig(spec.Seed, spec.Shards, spec.Dir))
	case "replay":
		var b, s string
		if b, _, err = tracedCrawl(tr, replayConfig(spec.Seed, spec.Shards, spec.Dir)); err == nil {
			s, err = tracedStore(tr, directStore(spec.Dir), directWeeks, directDomains, spec.Shards)
		}
		out.Parts = map[string]unitPart{"bundle": {Digest: b}, "store": {Digest: s}}
	default:
		err = fmt.Errorf("unknown traced op %q", spec.Op)
	}
	if err != nil {
		return unitResult{}, err
	}
	out.WallS = time.Since(start).Seconds()
	if eco != nil {
		tr.rerender(eco)
	}
	out.Layers = tr.metrics(out.WallS)
	return out, nil
}

// tracedDirect is core.Run's sharded direct collection.
func tracedDirect(tr *tracer, cfg core.Config) (string, error) {
	main := tr.lane()
	defer main.end()
	t := time.Now()
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, Bundling: cfg.Bundling})
	main.span("webgen.new_s", t)
	n := cfg.Shards
	parts := make([][]int, n)
	for i := range eco.Sites {
		s := store.ShardOf(eco.Sites[i].Domain.Name, n)
		parts[s] = append(parts[s], i)
	}
	shardRes, cs := shardSets(n, cfg.Weeks, cfg.Domains)
	for w := 0; w < cfg.Weeks; w++ {
		var wg sync.WaitGroup
		for s := 0; s < n; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				l := tr.lane()
				defer l.end()
				t := time.Now()
				for _, i := range parts[s] {
					truth := eco.Truth(i, w)
					t = l.span("webgen.truth_s", t)
					obs := analysis.ObservationFromTruth(eco.Sites[i].Domain, truth)
					t = l.span("analysis.from_truth_s", t)
					t = l.observe(cs[s], obs, t)
				}
			}(s)
		}
		t := time.Now()
		wg.Wait()
		main.wait(t)
	}
	return finish(main, mergeInto(main, shardRes, cfg.Weeks, cfg.Domains))
}

// timedRT times the round trips of the transport it wraps into total.
type timedRT struct {
	inner http.RoundTripper
	total *atomic.Int64
	// body, when set, also times reads of the response body into it.
	body *atomic.Int64
}

func (t *timedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.total.Add(int64(time.Since(start)))
	if err == nil && t.body != nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, total: t.body}
	}
	return resp, err
}

type timedBody struct {
	io.ReadCloser
	total *atomic.Int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.total.Add(int64(time.Since(start)))
	return n, err
}

// tracedHandler times the web server and counts what it serves.
type tracedHandler struct {
	ws *webserver.Server
	tr *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	h.ws.ServeHTTP(cw, r)
	h.tr.serveTotal.Add(int64(time.Since(start)))
	h.tr.requests.Add(1)
	h.tr.bytesOut.Add(cw.n)
	h.tr.mu.Lock()
	h.tr.paths = append(h.tr.paths, r.URL.Path)
	h.tr.mu.Unlock()
}

// countingWriter counts body bytes and keeps the connection hijackable:
// the web server aborts dead hosts by hijacking.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := c.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("not hijackable")
	}
	return hj.Hijack()
}

// rerender measures rendering: the web server renders inside its handler,
// so the render calls it made are repeated here, on the same requests, and
// their time is split out of the handler's. It runs after the traced unit.
func (t *tracer) rerender(eco *webgen.Ecosystem) {
	idx := make(map[string]int, len(eco.Sites))
	for i, s := range eco.Sites {
		idx[s.Domain.Name] = i
	}
	start := time.Now()
	for _, p := range t.paths {
		parts := strings.SplitN(strings.TrimPrefix(p, "/"), "/", 4)
		if len(parts) < 3 {
			continue
		}
		week, err := strconv.Atoi(parts[1])
		i, ok := idx[parts[2]]
		if err != nil || !ok || week < 0 || week >= eco.Cfg.Weeks {
			continue
		}
		_, status := eco.PageHTML(i, week)
		if len(parts) == 4 && strings.Trim(parts[3], "/") != "" && status != 0 {
			eco.AssetJS(i, week, "/"+strings.TrimSuffix(parts[3], "/"))
		}
	}
	t.add("webgen.render_s", time.Since(start).Seconds())
}

// tracedCrawl is core.Run's sharded crawl: live (serving eco on loopback,
// recording a bundle and writing a checkpointed store) or replayed from a
// bundle. It returns the report digest and, for live crawls, the ecosystem
// the server rendered.
func tracedCrawl(tr *tracer, cfg core.Config) (string, *webgen.Ecosystem, error) {
	main := tr.lane()
	defer main.end()
	t := time.Now()
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, Bundling: cfg.Bundling})
	t = main.span("webgen.new_s", t)
	n := cfg.Shards
	run := store.RunID{Seed: cfg.Seed, Domains: cfg.Domains, Weeks: cfg.Weeks, Mode: int(cfg.Mode)}

	var baseURL string
	var wrap func(http.RoundTripper) http.RoundTripper
	var sw *store.SegmentedWriter
	var bw *wexbundle.Writer
	live := cfg.ReplayBundle == ""
	if !live {
		b, err := wexbundle.Mount(cfg.ReplayBundle)
		if err != nil {
			return "", nil, err
		}
		t = main.span("wexbundle.mount_s", t)
		rt := b.Transport()
		wrap = func(http.RoundTripper) http.RoundTripper { return &timedRT{inner: rt, total: &tr.outerRT} }
		baseURL = "http://wexbundle.invalid"
	} else {
		var err error
		if sw, err = store.CreateSegmentedWith(cfg.StorePath, n, store.SegmentedOptions{Checkpoint: true, Run: run}); err != nil {
			return "", nil, err
		}
		t = main.span("store.write_s", t)
		bw, err = wexbundle.Create(cfg.RecordBundle, wexbundle.Options{Segments: n, Checkpoint: true, Run: run,
			Meta: wexbundle.Meta{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, BundleScan: cfg.BundleScan}})
		if err != nil {
			sw.Abort()
			return "", nil, err
		}
		t = main.span("wexbundle.append_s", t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sw.Abort()
			bw.Abort()
			return "", nil, err
		}
		srv := &http.Server{Handler: &tracedHandler{ws: webserver.New(eco), tr: tr}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			<-done
		}()
		baseURL = "http://" + ln.Addr().String()
		wrap = func(inner http.RoundTripper) http.RoundTripper {
			net := &timedRT{inner: inner, total: &tr.netRT, body: &tr.bodyRead}
			return &timedRT{inner: &wexbundle.RecordingTransport{Inner: net, W: bw}, total: &tr.outerRT}
		}
	}
	cr := crawler.New(crawler.Config{
		BaseURL:       baseURL,
		Workers:       cfg.Workers,
		FetchTimeout:  cfg.FetchTimeout,
		Backoff:       crawler.Backoff{Seed: cfg.Seed},
		Resilience:    cfg.Resilience,
		FetchScripts:  cfg.BundleScan,
		WrapTransport: wrap,
	})
	byName := eco.List.ByName()
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}

	shardRes, cs := shardSets(n, cfg.Weeks, cfg.Domains)
	chans := make([]chan crawler.Page, n)
	errs := make([]error, n)
	memos := make([]*fingerprint.Memo, n)
	var pending *sync.WaitGroup
	if live {
		pending = new(sync.WaitGroup)
	}
	var cwg sync.WaitGroup
	for s := 0; s < n; s++ {
		chans[s] = make(chan crawler.Page, 128)
		memos[s] = fingerprint.NewMemo(cfg.FingerprintCacheSize)
		cwg.Add(1)
		go func(s int) {
			defer cwg.Done()
			l := tr.lane()
			defer l.end()
			var scanned int
			t := time.Now()
			for p := range chans[s] {
				t = l.wait(t)
				if errs[s] == nil {
					var det fingerprint.Detection
					status := p.Status
					if p.Err != nil {
						status = 0
					} else if status == http.StatusOK {
						if len(p.Scripts) > 0 {
							scripts := make([]fingerprint.ScriptBody, len(p.Scripts))
							for i, sc := range p.Scripts {
								scripts[i] = fingerprint.ScriptBody{URL: sc.URL, Body: sc.Body}
								scanned += len(sc.Body)
							}
							det = memos[s].PageWithScripts(p.Body, p.Domain, scripts)
						} else {
							det = memos[s].Page(p.Body, p.Domain)
						}
					}
					t = l.span("fingerprint.detect_s", t)
					obs := analysis.ObservationFromCrawl(byName[p.Domain], p.Week, status, p.Body, det)
					t = l.span("analysis.from_crawl_s", t)
					t = l.observe(cs[s], obs, t)
					if sw != nil {
						errs[s] = sw.Write(obs)
						t = l.span("store.write_s", t)
					}
				}
				if pending != nil {
					pending.Done()
				}
			}
			tr.add("fingerprint.scanned_mb", float64(scanned)/1e6)
		}(s)
	}

	crawlErr := func() error {
		for w := 0; w < cfg.Weeks; w++ {
			jobs := make(chan string)
			var fwg sync.WaitGroup
			for i := 0; i < cfg.Workers; i++ {
				fwg.Add(1)
				go func() {
					defer fwg.Done()
					l := tr.lane()
					defer l.end()
					t := time.Now()
					for d := range jobs {
						t = l.wait(t)
						p := cr.Fetch(context.Background(), w, d)
						now := time.Now()
						l.pages = append(l.pages, ms(now.Sub(t)))
						t = l.span("crawler.page", t)
						if pending != nil {
							pending.Add(1)
						}
						chans[store.ShardOf(p.Domain, n)] <- p
						t = l.wait(t)
					}
				}()
			}
			for _, d := range domains {
				jobs <- d
			}
			close(jobs)
			t := time.Now()
			fwg.Wait()
			t = main.wait(t)
			if pending == nil {
				continue
			}
			pending.Wait()
			t = main.wait(t)
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			if err := bw.CommitWeek(w); err != nil {
				return err
			}
			t = main.span("wexbundle.commit_s", t)
			if err := sw.CommitWeek(w); err != nil {
				return err
			}
			main.span("store.commit_s", t)
			tr.add("store.commits", 1)
		}
		return nil
	}()
	for _, c := range chans {
		close(c)
	}
	t = time.Now()
	cwg.Wait()
	main.wait(t)
	for _, e := range errs {
		if crawlErr == nil {
			crawlErr = e
		}
	}
	if crawlErr != nil {
		if live {
			bw.Abort()
			sw.Abort()
		}
		return "", nil, crawlErr
	}
	res := mergeInto(main, shardRes, cfg.Weeks, cfg.Domains)
	if live {
		t = time.Now()
		if err := bw.Close(); err != nil {
			sw.Abort()
			return "", nil, err
		}
		t = main.span("wexbundle.commit_s", t)
		if err := sw.Close(); err != nil {
			return "", nil, err
		}
		main.span("store.commit_s", t)
		tr.add("store.bytes_written", float64(dirBytes(cfg.StorePath)))
		tr.add("wexbundle.bytes", float64(dirBytes(cfg.RecordBundle)))
	}
	m := cr.Metrics()
	tr.add("crawler.attempts", float64(m.Attempts))
	tr.add("crawler.retries", float64(m.Retries))
	tr.add("crawler.successes", float64(m.Successes))
	var hits, misses, shits, smisses uint64
	for _, mc := range memos {
		h, m := mc.Stats()
		sh, sm := mc.ScanStats()
		hits, misses, shits, smisses = hits+h, misses+m, shits+sh, smisses+sm
	}
	tr.add("fingerprint.memo_hits", float64(hits))
	tr.add("fingerprint.memo_lookups", float64(hits+misses))
	tr.add("fingerprint.scan_hits", float64(shits))
	tr.add("fingerprint.scan_lookups", float64(shits+smisses))
	digest, err := finish(main, res)
	if !live {
		return digest, nil, err
	}
	return digest, eco, err
}

// tracedStore is core.RunFromStore's aligned path: one decoding lane per
// segment feeding its shard's collectors.
func tracedStore(tr *tracer, dir string, weeks, domains, n int) (string, error) {
	main := tr.lane()
	defer main.end()
	t := time.Now()
	man, err := store.ReadManifest(dir)
	if err != nil {
		return "", err
	}
	main.span("store.read_s", t)
	if man.Segments != n {
		return "", fmt.Errorf("store has %d segments, want %d", man.Segments, n)
	}
	shardRes, cs := shardSets(n, weeks, domains)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			l := tr.lane()
			defer l.end()
			t := time.Now()
			errs[s] = store.ForEachSegment(dir, s, func(obs store.Observation) error {
				t = l.span("store.read_s", t)
				t = l.observe(cs[s], obs, t)
				return nil
			})
			l.span("store.read_s", t)
			tr.add("store.records_read", float64(l.obs))
		}(s)
	}
	t = time.Now()
	wg.Wait()
	main.wait(t)
	for _, e := range errs {
		if e != nil {
			return "", e
		}
	}
	return finish(main, mergeInto(main, shardRes, weeks, domains))
}

// metrics turns the trace into the per-layer metrics of one unit.
func (t *tracer) metrics(wall float64) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]metric{}
	for name, unit := range layerUnits() {
		out[name] = metric{0, unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	var selfSum time.Duration
	for k, v := range t.self {
		selfSum += v
		if _, ok := out[k]; ok {
			set(k, out[k].Value+v.Seconds())
		}
	}
	for _, c := range collectorNames {
		set("analysis.observe_s", out["analysis.observe_s"].Value+out["analysis."+c+".observe_s"].Value)
	}
	// Fetch lanes spend a page's time in network round trips, in bundle
	// appends (the recorder's time beyond its inner exchange) or replay
	// lookups, and otherwise waiting out retry backoff.
	outer, netRT, body := time.Duration(t.outerRT.Load()), time.Duration(t.netRT.Load()), time.Duration(t.bodyRead.Load())
	page := t.self["crawler.page"]
	if netRT > 0 {
		set("crawler.roundtrip_s", (netRT + body).Seconds())
		set("wexbundle.append_s", out["wexbundle.append_s"].Value+(outer-netRT-body).Seconds())
	} else {
		set("wexbundle.replay_s", outer.Seconds())
	}
	set("crawler.backoff_wait_s", (page - outer).Seconds())
	if len(t.pages) > 0 {
		sp := stats.Sorted(t.pages)
		set("crawler.page_ms_p50", stats.Percentile(sp, 0.5))
		set("crawler.page_ms_p99", stats.Percentile(sp, 0.99))
	}
	render := t.vals["webgen.render_s"]
	set("webgen.render_s", render)
	set("webserver.serve_s", time.Duration(t.serveTotal.Load()).Seconds()-render)
	set("webserver.requests", float64(t.requests.Load()))
	set("webserver.bytes", float64(t.bytesOut.Load()))
	for _, k := range []string{"analysis.observations", "crawler.attempts", "crawler.retries", "store.commits",
		"store.bytes_written", "store.records_read", "wexbundle.bytes", "report.bytes", "fingerprint.scanned_mb"} {
		set(k, t.vals[k])
	}
	set("crawler.success_ratio", ratio(t.vals["crawler.successes"], t.vals["crawler.attempts"]))
	set("fingerprint.memo_hit_ratio", ratio(t.vals["fingerprint.memo_hits"], t.vals["fingerprint.memo_lookups"]))
	set("fingerprint.scan_hit_ratio", ratio(t.vals["fingerprint.scan_hits"], t.vals["fingerprint.scan_lookups"]))
	set("archive_mb", (t.vals["store.bytes_written"]+t.vals["wexbundle.bytes"])/1e6)
	set("trace.wall_s", wall)
	set("trace.coverage", ratio(selfSum.Seconds(), t.laneTime.Seconds()))
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceBatch is the trace-mode runner shared by the batch workloads: an
// untraced reference in fresh children, then one traced unit; the traced
// digest must equal the untraced one.
func traceBatch(r *run, spec unitSpec, ref func(m measured) error, digestOf func(m measured) string) error {
	for name, unit := range layerUnits() {
		r.layers[name] = metric{0, unit}
	}
	untraced, err := units(r, spec, 0, ref)
	if err != nil {
		return err
	}
	var walls []float64
	for _, m := range untraced {
		walls = append(walls, m.WallS)
	}
	spec.Traced = true
	if spec.Op == "crawl" {
		if spec.Dir, err = subdir("crawl-traced"); err != nil {
			return err
		}
	}
	r.res.Attempted++
	m, err := spawnUnit(spec)
	if err != nil {
		r.fail("traced unit: %v", err)
		return nil
	}
	for k, v := range m.Layers {
		r.layers[k] = v
	}
	untracedWall := stats.Median(walls)
	r.layers["trace.untraced_wall_s"] = metric{untracedWall, "s"}
	r.layers["trace.overhead_s"] = metric{m.WallS - untracedWall, "s"}
	// The traced unit is one attempted unit: it fails at most once, on
	// the workload's own gate or else on differing from the untraced run.
	match := 0.0
	if digestOf(m) == digestOf(untraced[0]) {
		match = 1
	}
	if err := ref(m); err != nil {
		r.fail("traced unit: %v", err)
	} else if match == 0 {
		r.fail("traced digest %.12s differs from the untraced %.12s", digestOf(m), digestOf(untraced[0]))
	}
	r.layers["trace.digest_match"] = metric{match, "count"}
	r.note("traced wall %.4gs, untraced %.4gs, coverage %.3f, digest match %v",
		m.WallS, untracedWall, r.layers["trace.coverage"].Value, match == 1)
	return nil
}

func traceDirect(r *run, seed int64, _ time.Duration) error {
	ref, err := directSetup(r, seed)
	if err != nil {
		return err
	}
	return traceBatch(r, unitSpec{Op: "direct", Seed: seed, Shards: shards()},
		digestIs(ref, "the serial run"), func(m measured) string { return m.Digest })
}

func traceCrawl(r *run, seed int64, _ time.Duration) error {
	serialRef, err := crawlSetup(r, seed)
	if err != nil {
		return err
	}
	return traceBatch(r, unitSpec{Op: "crawl", Seed: seed, Shards: shards()}, digestIs(serialRef, "the serial crawl"),
		func(m measured) string { return m.Digest })
}

func traceReplay(r *run, seed int64, _ time.Duration) error {
	dir, bundleRef, storeRef, err := replaySetup(r, seed)
	if err != nil {
		return err
	}
	var bw, sw []float64
	return traceBatch(r, unitSpec{Op: "replay", Seed: seed, Shards: shards(), Dir: dir}, func(m measured) error {
		return checkReplay(m, bundleRef, storeRef, &bw, &sw)
	}, func(m measured) string { return m.Parts["bundle"].Digest + m.Parts["store"].Digest })
}
