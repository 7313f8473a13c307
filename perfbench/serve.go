package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"clientres/internal/fingerprint"
	"clientres/internal/policy"
	"clientres/internal/service"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
	"clientres/perfbench/stats"
)

// audit-serve settings. The fixed rate sits well below the service's
// capacity on a 2-core machine, so its latency measures the service, not a
// queue; the ladder then climbs in 5% steps to find the capacity.
//
// The request mix rests on two assumptions, since the repository holds no
// traffic data to take shares from. A request repeats an earlier request
// of its window with probability repeatShare, so the cache can answer it;
// the share is kept below one half so that audit_p50_ms falls inside the
// cold audits, not on the boundary between hits and misses, and the hit
// ratio the service actually reaches is measured and reported. A fresh
// request takes each of the service's three audit paths (raw HTML, the
// preloaded server policy, an inline policy) with equal probability, so
// no path is weighted by a guess.
const (
	serveDomains   = 300
	servePages     = 400    // distinct rendered pages in the pool
	serveFixedRate = 1000.0 // requests per second of the fixed-rate window
	serveLimit     = 250 * time.Millisecond
	ladderBase     = 1000.0 // ladder step 0, requests per second
	ladderSteps    = 45     // steps 0..45 span 1000–8990 req/s
	ladderCoarse   = 5      // coarse climb strides 5 steps (×1.28)
	ladderStep     = 500 * time.Millisecond
	repeatShare    = 0.3
	traceRounds    = 3 // in-process rounds of each kind in the traced run
)

// auditNow is the service's fixed audit clock, so responses are
// deterministic and can be checked byte for byte.
var auditNow = webgen.WeekDate(webgen.StudyWeeks)

// gatePolicy is evaluated both as the server's preloaded policy and inline.
const gatePolicy = `{"name":"gate","rules":[` +
	`{"name":"stale-high","scope":"finding","when":"severity == \"high\" && age(disclosed) > 90d"},` +
	`{"name":"missing-sri","when":"missing_sri > 0"},` +
	`{"name":"discontinued","level":"warn","scope":"library","when":"discontinued"}]}`

// Request kinds: the service's three audit paths.
const (
	kindRaw = iota
	kindServerPolicy
	kindInlinePolicy
	kinds
)

// page is one pooled page with the responses the service must return.
type page struct {
	html, host string
	plain      []byte // expected /v1/audit body
	withPolicy []byte // expected body with the gate policy applied
}

// request is one entry of the open-loop request stream. tag makes the body
// unique (a trailing HTML comment) so the request misses the cache; a
// repeat reuses an earlier request's tag and hits it.
type request struct {
	page, tag, kind int
}

// buildPool renders the page pool from a seeded bundled ecosystem and
// computes each page's expected responses in process.
func buildPool(seed int64) ([]page, error) {
	pol, err := policy.Compile([]byte(gatePolicy))
	if err != nil {
		return nil, err
	}
	eco := webgen.New(webgen.Config{Domains: serveDomains, Seed: seed, Bundling: webgen.DefaultBundling(bundleFraction)})
	rng := rand.New(rand.NewSource(seed))
	var pool []page
	for tries := 0; len(pool) < servePages && tries < 100*servePages; tries++ {
		i, w := rng.Intn(len(eco.Sites)), rng.Intn(eco.Cfg.Weeks)
		html, status := eco.PageHTML(i, w)
		if status != http.StatusOK || len(html) < 200 {
			continue
		}
		p := page{html: html, host: eco.Sites[i].Domain.Name}
		if p.plain, p.withPolicy, err = expected(pol, p.html+tagComment(0), p.host); err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	if len(pool) < servePages {
		return nil, fmt.Errorf("only %d servable pages", len(pool))
	}
	return pool, nil
}

// expected is what the service answers for html: the audit JSON, and the
// {"audit":…,"policy":…} envelope under pol.
func expected(pol *policy.Policy, html, host string) (plain, withPolicy []byte, err error) {
	aj, err := json.Marshal(service.Audit(html, host, auditNow))
	if err != nil {
		return nil, nil, err
	}
	plain = append(aj, '\n')
	withPolicy, err = applyPolicy(pol, plain)
	return plain, withPolicy, err
}

// applyPolicy is the service's policy step on a serialized audit: decode
// it, evaluate pol on its policy document and splice audit and verdict
// into the {"audit":…,"policy":…} envelope.
func applyPolicy(pol *policy.Policy, auditJSON []byte) ([]byte, error) {
	var resp service.AuditResponse
	if err := json.Unmarshal(auditJSON, &resp); err != nil {
		return nil, err
	}
	vj, err := json.Marshal(pol.Eval(resp.PolicyDoc(auditNow)))
	if err != nil {
		return nil, err
	}
	aj := bytes.TrimRight(auditJSON, "\n")
	return append(append(append(append([]byte(`{"audit":`), aj...), `,"policy":`...), vj...), "}\n"...), nil
}

func tagComment(tag int) string { return "\n<!-- request " + strconv.Itoa(tag) + " -->\n" }

// buildMix draws n requests from the seeded mix, tags starting at first.
// A repeat copies a uniformly drawn earlier request of the same mix.
func buildMix(seed int64, n, first int) []request {
	rng := rand.New(rand.NewSource(seed ^ int64(first+1)*0x9e3779b9))
	mix := make([]request, n)
	for k := range mix {
		if k > 0 && rng.Float64() < repeatShare {
			mix[k] = mix[rng.Intn(k)]
			continue
		}
		mix[k] = request{page: rng.Intn(servePages), tag: first + k, kind: rng.Intn(kinds)}
	}
	return mix
}

// client sends mix requests to one audit server and checks every body.
type client struct {
	base string
	pool []page
	hc   *http.Client
}

func newClient(base string, pool []page, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, pool: pool, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and classifies its outcome; sum, when non-nil,
// receives the response body's digest.
func (c *client) do(rq request, sum *[32]byte) (outcome, bool) {
	p := c.pool[rq.page]
	html := p.html + tagComment(rq.tag)
	var req *http.Request
	var err error
	want := p.plain
	switch rq.kind {
	case kindInlinePolicy:
		body, merr := json.Marshal(map[string]any{"html": html, "host": p.host, "policy": json.RawMessage(gatePolicy)})
		if merr != nil {
			return outFailed, false
		}
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/audit", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		want = p.withPolicy
	case kindServerPolicy:
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/audit?policy=server&host="+url.QueryEscape(p.host), bytes.NewReader([]byte(html)))
		want = p.withPolicy
	default:
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/audit?host="+url.QueryEscape(p.host), bytes.NewReader([]byte(html)))
	}
	if err != nil {
		return outFailed, false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outFailed, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	hit := resp.Header.Get("X-Cache") == "hit"
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		return outShed, hit
	case err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want):
		return outFailed, hit
	}
	if sum != nil {
		*sum = sha256.Sum256(body)
	}
	return outOK, hit
}

// window runs one fixed-rate open-loop step against base and returns its
// summary and the digest of every response body in request order.
func window(base string, pool []page, rate float64, mix []request) (rateSummary, []sample, string) {
	conns := shards()
	c := newClient(base, pool, conns)
	defer c.hc.CloseIdleConnections()
	warm(c, conns)
	sums := make([][32]byte, len(mix))
	samples := openLoop(rate, len(mix), conns, func(k int) (outcome, bool) { return c.do(mix[k], &sums[k]) })
	return summarize(rate, samples, serveLimit), samples, digestSums(sums)
}

// digestSums digests a stream of per-response SHA-256 sums.
func digestSums(sums [][32]byte) string {
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warm opens the client's keep-alive connections before timing.
func warm(c *client, conns int) {
	done := make(chan struct{}, conns)
	for i := 0; i < conns; i++ {
		go func() {
			if resp, err := c.hc.Get(c.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < conns; i++ {
		<-done
	}
}

// serveChild runs the audit service on a loopback port until stdin closes.
func serveChild() int {
	pol, err := policy.Compile([]byte(gatePolicy))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	srv := service.New(service.Config{Policy: pol, Now: func() time.Time { return auditNow }})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		cancel()
	}()
	fmt.Printf("addr %s\n", ln.Addr())
	if err := srv.Serve(ctx, ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

// serveSetup builds the pool and starts a fresh server, setupRepeats times,
// and returns the median time with the last pool and server.
func serveSetup(seed int64) (float64, []page, *server, error) {
	var pool []page
	var srv *server
	t, err := timeSetup(setupRepeats, func() error {
		if srv != nil {
			if _, _, err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if pool, err = buildPool(seed); err != nil {
			return err
		}
		srv, err = startServer()
		return err
	})
	if err != nil && srv != nil {
		srv.stop()
	}
	return t, pool, srv, err
}

// fixedWindow measures the fixed-rate window on srv, stops srv and returns
// the summary, the samples, the response digest and the server's CPU and
// peak RSS.
func fixedWindow(srv *server, pool []page, mix []request) (rateSummary, []sample, string, float64, float64, error) {
	sum, samples, digest := window(srv.base, pool, serveFixedRate, mix)
	cpu, rss, err := srv.stop()
	return sum, samples, digest, cpu, rss, err
}

// fixedMix is the fixed-rate window's request stream: 45% of the budget.
func fixedMix(seed int64, budget time.Duration) []request {
	return buildMix(seed, int(serveFixedRate*budget.Seconds()*0.45), 0)
}

// climb runs the rate ladder against a fresh server and returns the highest
// rate that met the limit (0 if none did) with every step's summary.
func climb(r *run, seed int64, pool []page) (float64, []rateSummary, error) {
	srv, err := startServer()
	if err != nil {
		return 0, nil, err
	}
	var steps []rateSummary
	first := 1 << 20
	best, _ := climbLadder(ladderSteps, ladderCoarse, func(k int) bool {
		rate := ladderRate(ladderBase, k)
		mix := buildMix(seed, int(rate*ladderStep.Seconds()), first)
		first += len(mix)
		s, _, _ := window(srv.base, pool, rate, mix)
		steps = append(steps, s)
		// A wrong body is a correctness failure even while probing.
		if s.Failed > 0 {
			r.fail("ladder step %.0f req/s: %d requests failed", rate, s.Failed)
		}
		return s.meets(serveLimit)
	})
	if _, _, err := srv.stop(); err != nil {
		return 0, steps, err
	}
	if best < 0 {
		return 0, steps, nil
	}
	return ladderRate(ladderBase, best), steps, nil
}

func measureServe(r *run, seed int64, budget time.Duration) error {
	setup, pool, srv, err := serveSetup(seed)
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	fixed, _, _, cpu, rss, err := fixedWindow(srv, pool, fixedMix(seed, budget))
	if err != nil {
		return err
	}
	recordFixed(r, fixed, cpu, rss)
	maxRPS, steps, err := climb(r, seed, pool)
	if err != nil {
		return err
	}
	r.details["ladder"] = steps
	r.details["audit_max_rps"] = maxRPS
	r.note("audit_max_rps %.0f (ladder steps %d)", maxRPS, len(steps))
	return nil
}

// countWindow adds a fixed-rate window's requests to the run: each request
// that failed, was shed or missed the latency limit counts as failed, and a
// wrong or missing response makes the run incorrect.
func countWindow(r *run, s rateSummary, what string) {
	r.res.Attempted += s.Sent
	if bad := s.Failed + s.Shed + s.OverLimit; bad > 0 {
		r.res.Failed += bad
		r.res.Correct = r.res.Correct && s.Failed == 0
		r.note("FAIL: %s: %d failed, %d shed, %d over the %v limit", what, s.Failed, s.Shed, s.OverLimit, serveLimit)
	}
}

// recordFixed turns the fixed-rate window into the end-to-end metrics. The
// unit of work of audit-serve is one audit request: wall_s is its median
// latency from the due time, cpu_s the server's CPU per request.
func recordFixed(r *run, s rateSummary, cpu, rss float64) {
	countWindow(r, s, "fixed window")
	r.set("wall_s", s.P50MS/1000, "s")
	r.set("cpu_s", cpu/float64(s.Sent), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.details["fixed"] = s
	r.note("fixed %.0f req/s: sent %d ok %d failed %d shed %d hits %d; p50 %.3f ms p99 %.3f ms max %.3f ms; late p99 %.3f ms",
		s.Rate, s.Sent, s.OK, s.Failed, s.Shed, s.Hits, s.P50MS, s.P99MS, s.MaxMS, s.LateP99MS)
}

// auditTimes is the traced account of answering a request stream in
// process: self times of detection, of advisory matching with the audit's
// JSON encoding, and of the policy step, plus each audit's whole time.
type auditTimes struct {
	detect, match, policy time.Duration
	auditMS               []float64
}

// audit is service.Audit re-composed from its layers, detection and
// matching timed apart, returning the serialized audit as the service's
// worker does.
func (a *auditTimes) audit(html, host string) ([]byte, error) {
	t0 := time.Now()
	det := fingerprint.Page(html, host)
	t1 := time.Now()
	b, err := json.Marshal(matchAdvisories(det, host, auditNow))
	t2 := time.Now()
	a.detect += t1.Sub(t0)
	a.match += t2.Sub(t1)
	a.auditMS = append(a.auditMS, ms(t2.Sub(t0)))
	return append(b, '\n'), err
}

// matchAdvisories is service.Audit after detection: the detected libraries
// matched against the advisory database as of now.
func matchAdvisories(det fingerprint.Detection, host string, now time.Time) service.AuditResponse {
	resp := service.AuditResponse{
		Host:        host,
		Libraries:   []service.AuditLibrary{},
		Findings:    []service.AuditFinding{},
		ScriptCount: det.ScriptCount,
	}
	if !det.WordPress.IsZero() {
		resp.WordPress = det.WordPress.String()
	}
	for _, hit := range det.Libraries {
		lib := service.AuditLibrary{Slug: hit.Slug, Known: hit.Known, External: hit.External, Host: hit.Host,
			SRI: hit.SRI, Crossorigin: hit.Crossorigin}
		if !hit.Version.IsZero() {
			lib.Version = hit.Version.String()
		}
		resp.Libraries = append(resp.Libraries, lib)
		if hit.External && !hit.SRI {
			resp.MissingSRI++
		}
		if !hit.Known || hit.Version.IsZero() {
			continue
		}
		for _, adv := range vulndb.AdvisoriesFor(hit.Slug) {
			inTVV := adv.EffectiveTrueRange().Contains(hit.Version)
			inCVE := adv.CVERange.Contains(hit.Version)
			if !inTVV && !inCVE {
				continue
			}
			f := service.AuditFinding{Library: hit.Slug, Version: hit.Version.String(),
				Advisory: adv.ID, Attack: string(adv.Attack), Severity: adv.Attack.Severity(),
				Disclosed: adv.Disclosed.Format("2006-01-02"), PerCVEOnly: inCVE && !inTVV,
				Conditional: adv.Conditional}
			if !adv.Patched.IsZero() {
				f.FixedIn = adv.Patched.String()
			}
			if !adv.PatchDate.IsZero() {
				if days := int(now.Sub(adv.PatchDate).Hours() / 24); days > 0 {
					f.PatchAvailableDays = days
				}
			}
			resp.VulnerableTVV = resp.VulnerableTVV || inTVV
			resp.VulnerableCVE = resp.VulnerableCVE || inCVE
			resp.Findings = append(resp.Findings, f)
		}
	}
	if det.Flash != nil {
		resp.UsesFlash = true
		resp.InsecureFlash = det.Flash.Always
	}
	return resp
}

// answerStream answers mix in process the way the service does: one audit
// per distinct request (a repeat reuses the earlier audit, as the cache
// does) and the policy step on every policy request, the inline policy
// compiled each time as the service compiles it. Untraced (at == nil) it
// calls service.Audit; traced it calls the re-composition and times every
// layer. It returns the digest of every body in request order, as window
// digests the server's responses.
func answerStream(pool []page, mix []request, serverPol *policy.Policy, at *auditTimes) (string, error) {
	audits := map[int][]byte{}
	sums := make([][32]byte, len(mix))
	for k, rq := range mix {
		p := pool[rq.page]
		aj, ok := audits[rq.tag]
		if !ok {
			html := p.html + tagComment(rq.tag)
			var err error
			if at != nil {
				aj, err = at.audit(html, p.host)
			} else {
				aj, err = json.Marshal(service.Audit(html, p.host, auditNow))
				aj = append(aj, '\n')
			}
			if err != nil {
				return "", err
			}
			audits[rq.tag] = aj
		}
		body := aj
		if rq.kind != kindRaw {
			t := time.Now()
			pol := serverPol
			var err error
			if rq.kind == kindInlinePolicy {
				if pol, err = policy.Compile([]byte(gatePolicy)); err != nil {
					return "", err
				}
			}
			if body, err = applyPolicy(pol, aj); err != nil {
				return "", err
			}
			if at != nil {
				at.policy += time.Since(t)
			}
		}
		sums[k] = sha256.Sum256(body)
	}
	return digestSums(sums), nil
}

// traceServe measures the fixed-rate window on the server, then answers
// the same request stream in process twice: untraced through service.Audit
// and traced through its re-composition. The traced answers must digest
// to exactly the server's responses. The trace covers the in-process
// answers only; what the HTTP path adds shows as service.overhead_ms.
func traceServe(r *run, seed int64, budget time.Duration) error {
	for name, unit := range layerUnits() {
		r.layers[name] = metric{0, unit}
	}
	l := func(name string, v float64) { r.layers[name] = metric{v, layerUnits()[name]} }
	_, pool, srv, err := serveSetup(seed)
	if err != nil {
		return err
	}
	mix := fixedMix(seed, budget)
	win, samples, wdigest, cpu, rss, err := fixedWindow(srv, pool, mix)
	if err != nil {
		return err
	}
	recordFixed(r, win, cpu, rss)

	start := time.Now()
	webgen.New(webgen.Config{Domains: serveDomains, Seed: seed, Bundling: webgen.DefaultBundling(bundleFraction)})
	l("webgen.new_s", time.Since(start).Seconds())

	pol, err := policy.Compile([]byte(gatePolicy))
	if err != nil {
		return err
	}
	// Untraced and traced answers alternate, traceRounds of each, so that
	// warm-up does not fall on one side; walls are medians, layer times
	// those of the last traced round.
	var untracedS, tracedS []float64
	var at auditTimes
	var tdigest string
	for i := 0; i < traceRounds; i++ {
		start = time.Now()
		if _, err := answerStream(pool, mix, pol, nil); err != nil {
			return err
		}
		untracedS = append(untracedS, time.Since(start).Seconds())
		at = auditTimes{}
		start = time.Now()
		if tdigest, err = answerStream(pool, mix, pol, &at); err != nil {
			return err
		}
		tracedS = append(tracedS, time.Since(start).Seconds())
	}
	traced, untraced := stats.Median(tracedS), stats.Median(untracedS)

	sa := stats.Sorted(at.auditMS)
	var missLat []float64
	for _, s := range samples {
		if !s.Hit {
			missLat = append(missLat, ms(s.Lat))
		}
	}
	l("fingerprint.detect_s", at.detect.Seconds())
	l("service.match_s", at.match.Seconds())
	l("policy.eval_s", at.policy.Seconds())
	l("service.audit_ms_p50", stats.Percentile(sa, 0.5))
	l("service.audit_ms_p99", stats.Percentile(sa, 0.99))
	l("service.cache_hit_ratio", ratio(float64(win.Hits), float64(win.Sent)))
	l("service.shed", float64(win.Shed))
	l("service.overhead_ms", stats.Percentile(stats.Sorted(missLat), 0.5)-stats.Percentile(sa, 0.5))
	l("audit_p50_ms", win.P50MS)
	l("audit_p99_ms", win.P99MS)
	l("audit_late_ms_p99", win.LateP99MS)
	l("trace.wall_s", traced)
	l("trace.untraced_wall_s", untraced)
	l("trace.overhead_s", traced-untraced)
	l("trace.coverage", (at.detect+at.match+at.policy).Seconds()/tracedS[len(tracedS)-1])
	// The traced stream is one more attempted unit, failed if its answers
	// differ from the server's.
	r.res.Attempted++
	match := 0.0
	if tdigest == wdigest {
		match = 1
	} else {
		r.fail("traced answers digest %.12s differs from the server's responses %.12s", tdigest, wdigest)
	}
	l("trace.digest_match", match)

	maxRPS, steps, err := climb(r, seed, pool)
	if err != nil {
		return err
	}
	l("audit_max_rps", maxRPS)
	r.details["ladder"] = steps
	r.note("in process: traced %.3fs, untraced %.3fs; server hits %d of %d, audit_max_rps %.0f, digest match %v",
		traced, untraced, win.Hits, win.Sent, maxRPS, match == 1)
	return nil
}
