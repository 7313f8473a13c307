package main

import (
	"crypto/sha256"
	"net/http"
	"reflect"
	"testing"
	"time"

	"clientres/internal/policy"
	"clientres/internal/webgen"
)

func TestDueOffsetIsExactSchedule(t *testing.T) {
	for _, c := range []struct {
		k    int
		rate float64
		want time.Duration
	}{
		{0, 1000, 0},
		{1, 1000, time.Millisecond},
		{2500, 1000, 2500 * time.Millisecond},
		{3, 300, 10 * time.Millisecond},
		{7, 0.5, 14 * time.Second},
	} {
		if got := dueOffset(c.k, c.rate); got != c.want {
			t.Errorf("dueOffset(%d, %v) = %v, want %v", c.k, c.rate, got, c.want)
		}
	}
}

// A fast service keeps up: every request goes out close to its due time,
// the run lasts as long as the schedule, and latency includes lateness.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const rate, n = 500.0, 100
	start := time.Now()
	samples := openLoop(rate, n, 2, func(int) (outcome, bool) { return outOK, false })
	elapsed := time.Since(start)
	if min := dueOffset(n-1, rate); elapsed < min {
		t.Fatalf("run took %v, shorter than its schedule %v: requests went out early", elapsed, min)
	}
	for k, s := range samples {
		if s.Late < 0 || s.Lat < s.Late {
			t.Fatalf("request %d: late %v, latency %v", k, s.Late, s.Lat)
		}
	}
	sum := summarize(rate, samples, 50*time.Millisecond)
	if sum.Sent != n || sum.OK != n || sum.Backlog {
		t.Fatalf("summary %+v", sum)
	}
}

// A service slower than the schedule builds a backlog: each request is sent
// later than the one before, its latency counts the wait from its due time,
// and the step does not meet the limit.
func TestOpenLoopChargesBacklogFromDueTime(t *testing.T) {
	const rate, n, service = 1000.0, 60, 4 * time.Millisecond
	samples := openLoop(rate, n, 1, func(int) (outcome, bool) {
		time.Sleep(service)
		return outOK, false
	})
	for k := 1; k < n; k++ {
		if samples[k].Lat < samples[k].Late+service {
			t.Fatalf("request %d: latency %v below lateness %v + service %v", k, samples[k].Lat, samples[k].Late, service)
		}
	}
	// Request k waits for k earlier requests of >= 4ms each, due 1ms apart.
	if want := time.Duration(n-1) * (service - time.Millisecond); samples[n-1].Late < want {
		t.Fatalf("last request late %v, want at least %v", samples[n-1].Late, want)
	}
	limit := 50 * time.Millisecond
	sum := summarize(rate, samples, limit)
	if !sum.Backlog || sum.meets(limit) {
		t.Fatalf("backlog not detected: %+v", sum)
	}
}

func TestSummarizeCounts(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{Lat: 1 * ms, Out: outOK, Hit: true},
		{Lat: 2 * ms, Out: outOK},
		{Lat: 3 * ms, Out: outShed},
		{Lat: 90 * ms, Out: outFailed},
		{Lat: 80 * ms, Out: outOK},
	}
	s := summarize(100, samples, 50*ms)
	// A failed request over the limit counts once, as failed.
	if s.Sent != 5 || s.OK != 3 || s.Shed != 1 || s.Failed != 1 || s.OverLimit != 1 || s.Hits != 1 {
		t.Fatalf("counts %+v", s)
	}
	if s.P50MS != 3 || s.MaxMS != 90 {
		t.Fatalf("p50 %v max %v", s.P50MS, s.MaxMS)
	}
	if s.meets(50 * ms) {
		t.Fatal("a step with failures met the limit")
	}
}

func TestClimbLadder(t *testing.T) {
	for _, c := range []struct {
		capacity int // highest passing step; -1 none
		want     int
		tried    int
	}{
		{13, 13, 8},  // coarse 0,5,10,15 then fine 11,12,13,14
		{45, 45, 10}, // every coarse step passes
		{10, 10, 5},  // fine 11 fails right after coarse 15
		{-1, -1, 1},
	} {
		best, tried := climbLadder(45, 5, func(k int) bool { return k <= c.capacity })
		if best != c.want || len(tried) != c.tried {
			t.Errorf("capacity %d: best %d after %v", c.capacity, best, tried)
		}
	}
}

func TestDigestGates(t *testing.T) {
	m := measured{unitResult: unitResult{Digest: "abc"}}
	if err := digestIs("abc", "ref")(m); err != nil {
		t.Errorf("equal digests rejected: %v", err)
	}
	if err := digestIs("abd", "ref")(m); err == nil {
		t.Error("different digests accepted")
	}
	var bw, sw []float64
	rep := measured{unitResult: unitResult{Parts: map[string]unitPart{
		"bundle": {WallS: 1, Digest: "b"}, "store": {WallS: 2, Digest: "s"}}}}
	if err := checkReplay(rep, "b", "s", &bw, &sw); err != nil {
		t.Errorf("matching replay rejected: %v", err)
	}
	if err := checkReplay(rep, "b", "x", &bw, &sw); err == nil {
		t.Error("store replay mismatch accepted")
	}
	if err := checkReplay(rep, "x", "s", &bw, &sw); err == nil {
		t.Error("bundle replay mismatch accepted")
	}
	if err := checkReplay(measured{}, "b", "s", &bw, &sw); err == nil {
		t.Error("replay without parts accepted")
	}
	if len(bw) != 3 || bw[0] != 1 || sw[0] != 2 {
		t.Errorf("part walls %v %v", bw, sw)
	}
}

// Repeats copy an earlier request of the same mix, fresh requests carry
// their own tag, and every audit path is drawn.
func TestBuildMix(t *testing.T) {
	const n, first = 3000, 500
	mix := buildMix(7, n, first)
	var repeats int
	seen := map[int]request{}
	byKind := make([]int, kinds)
	for k, rq := range mix {
		if rq.tag == first+k {
			seen[rq.tag] = rq
			byKind[rq.kind]++
			continue
		}
		repeats++
		if prev, ok := seen[rq.tag]; !ok || prev != rq {
			t.Fatalf("request %d %+v repeats nothing earlier", k, rq)
		}
	}
	if share := float64(repeats) / n; share < repeatShare-0.05 || share > repeatShare+0.05 {
		t.Errorf("repeat share %.3f, want about %v", share, repeatShare)
	}
	for kind, c := range byKind {
		if c < (n-repeats)/kinds*8/10 {
			t.Errorf("kind %d drawn %d times of %d fresh requests", kind, c, n-repeats)
		}
	}
	if again := buildMix(7, n, first); !reflect.DeepEqual(again, mix) {
		t.Error("the same seed drew a different mix")
	}
}

// The traced re-composition of service.Audit and the in-process policy
// step answer byte for byte as the service's own functions do.
func TestAnswerStreamTracedEqualsUntraced(t *testing.T) {
	pol, err := policy.Compile([]byte(gatePolicy))
	if err != nil {
		t.Fatal(err)
	}
	eco := webgen.New(webgen.Config{Domains: 40, Weeks: 10, Seed: 3, Bundling: webgen.DefaultBundling(bundleFraction)})
	var pool []page
	for i := range eco.Sites {
		if html, status := eco.PageHTML(i, 5); status == http.StatusOK {
			p := page{html: html, host: eco.Sites[i].Domain.Name}
			if p.plain, p.withPolicy, err = expected(pol, html+tagComment(0), p.host); err != nil {
				t.Fatal(err)
			}
			pool = append(pool, p)
		}
	}
	mix := buildMix(3, 300, 0)
	for k := range mix {
		mix[k].page %= len(pool)
	}
	want, err := answerStream(pool, mix, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	var at auditTimes
	got, err := answerStream(pool, mix, pol, &at)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("traced answers digest %s, untraced %s", got, want)
	}
	if at.detect <= 0 || at.match <= 0 || at.policy <= 0 || len(at.auditMS) == 0 {
		t.Fatalf("layer times not recorded: %+v", at)
	}
	// Each answer equals the expected body the client checks against.
	sums := make([][32]byte, len(mix))
	for k, rq := range mix {
		body := pool[rq.page].plain
		if rq.kind != kindRaw {
			body = pool[rq.page].withPolicy
		}
		sums[k] = sha256.Sum256(body)
	}
	if d := digestSums(sums); d != want {
		t.Fatalf("in-process answers digest %s, expected bodies %s", want, d)
	}
}
