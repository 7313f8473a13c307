package clientres

// Ablations for the segmented store and the fingerprint memo cache — the
// two ends of the pipeline PR 1 left serial. BenchmarkStoreReadSegments
// compares a full archive replay through the single sequential gzip
// stream against the segmented parallel readers at 1/2/4/8 segments (run
// with -benchmem: the v3 delta decoder skips JSON entirely for
// week-over-week unchanged records). BenchmarkStoreDecodeSegment
// isolates the parallelism argument on a single CPU: it decodes ONE
// segment of an N-segment archive, showing per-segment replay cost shrink
// proportionally with segment count — the unit of work a parallel replay
// distributes. BenchmarkFingerprintMemo measures the re-crawl
// fingerprinting cost with and without the content-hash memo — the
// week-over-week unchanged-page case the paper's 531-day mean update
// delay makes dominant. BenchmarkStoreWrite measures the write-path
// durability tax: the v3 single file, and the v3 segmented store without
// and with per-week commit fsyncs, reporting the final archive size as
// the archive-bytes metric. v3 is the only observation format written;
// the retired v2 and read-only v1 rows in BENCH_store.json are history.
// `make bench-store` runs all of them and appends machine-readable
// results to BENCH_store.json.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clientres/internal/fingerprint"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// benchStores materializes the benchmark observation stream as a v3
// single-file archive plus v3 segmented archives at several segment
// counts, once per process.
var (
	benchStoreOnce sync.Once
	benchStoreDir  string
	benchStoreErr  error
)

func benchStorePaths(b *testing.B) (single string, segmented func(segs int) string) {
	obs, _ := benchData(b)
	benchStoreOnce.Do(func() {
		// Not b.TempDir: the archives must survive this benchmark's
		// cleanup so -count=N reruns (and future benchmarks) can reuse
		// them; the OS reaps the temp dir.
		dir, err := os.MkdirTemp("", "clientres-bench-store-")
		if err != nil {
			benchStoreErr = err
			return
		}
		benchStoreDir = dir
		w, err := store.Create(filepath.Join(dir, "obs.jsonl.gz"))
		if err != nil {
			benchStoreErr = err
			return
		}
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				benchStoreErr = err
				return
			}
		}
		if benchStoreErr = w.Close(); benchStoreErr != nil {
			return
		}
		for _, segs := range []int{1, 2, 4, 8} {
			sw, err := store.CreateSegmented(filepath.Join(dir, fmt.Sprintf("obs-v3-%d.store", segs)), segs)
			if err != nil {
				benchStoreErr = err
				return
			}
			for _, o := range obs {
				if err := sw.Write(o); err != nil {
					benchStoreErr = err
					return
				}
			}
			if benchStoreErr = sw.Close(); benchStoreErr != nil {
				return
			}
		}
	})
	if benchStoreErr != nil {
		b.Fatal(benchStoreErr)
	}
	return filepath.Join(benchStoreDir, "obs.jsonl.gz"),
		func(segs int) string {
			return filepath.Join(benchStoreDir, fmt.Sprintf("obs-v3-%d.store", segs))
		}
}

// BenchmarkStoreReadSegments replays the full archive: the single-file
// sequential decoder versus the parallel per-segment decoders (the
// no-retain fast path core.RunFromStore uses when shards == segments).
func BenchmarkStoreReadSegments(b *testing.B) {
	single, segmented := benchStorePaths(b)
	count := func(b *testing.B, n int) {
		b.Helper()
		want := len(benchObs)
		if n != want {
			b.Fatalf("replay saw %d observations, want %d", n, want)
		}
	}
	b.Run("single-file", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := store.ForEach(single, func(store.Observation) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			count(b, n)
		}
	})
	for _, segs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("v3/segments=%d", segs), func(b *testing.B) {
			dir := segmented(segs)
			for i := 0; i < b.N; i++ {
				counts := make([]int, segs)
				if err := store.ForEachSegmentedParallel(dir, func(seg int, _ store.Observation) error {
					counts[seg]++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, c := range counts {
					n += c
				}
				count(b, n)
			}
		})
	}
}

// BenchmarkStoreDecodeSegment decodes segment 0 of an N-segment archive —
// the unit of work one goroutine owns in a parallel replay. On any
// machine (including a single-CPU one where wall-clock parallel speedup
// is invisible) this shows the scaling argument directly: per-segment
// decode cost falls proportionally with segment count.
func BenchmarkStoreDecodeSegment(b *testing.B) {
	_, segmented := benchStorePaths(b)
	for _, segs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("v3/segments=%d", segs), func(b *testing.B) {
			dir := segmented(segs)
			for i := 0; i < b.N; i++ {
				n := 0
				if err := store.ForEachSegment(dir, 0, func(store.Observation) error {
					n++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("segment 0 replayed empty")
				}
			}
		})
	}
}

// BenchmarkStoreWrite measures the durability tax and size of each write
// path: "file-v3" is the single-file archive store.Create writes, "delta"
// the v3 segmented layout, and "delta-commit" the fully crash-safe
// configuration — one CommitWeek (segment flush + gzip member close +
// fsync + atomic checkpoint) per collected week. Each variant reports the
// finished archive size as archive-bytes; EXPERIMENTS.md tracks both.
func BenchmarkStoreWrite(b *testing.B) {
	obs, weeks := benchData(b)
	perWeek := make([][]store.Observation, weeks)
	for _, o := range obs {
		perWeek[o.Week] = append(perWeek[o.Week], o)
	}
	var bytes int64
	writeAll := func(b *testing.B, w store.Sink) {
		b.Helper()
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				b.Fatal(err)
			}
		}
	}
	writeCommitted := func(b *testing.B, w *store.SegmentedWriter) {
		b.Helper()
		for wk, week := range perWeek {
			for _, o := range week {
				if err := w.Write(o); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.CommitWeek(wk); err != nil {
				b.Fatal(err)
			}
		}
	}
	finish := func(b *testing.B, w store.Sink, path string) {
		b.Helper()
		if w.Count() != len(obs) {
			b.Fatalf("wrote %d observations, want %d", w.Count(), len(obs))
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if fi, err := os.Stat(path); err == nil {
			bytes = fi.Size()
		}
	}
	dir := b.TempDir()
	run := store.RunID{Seed: 1, Domains: len(perWeek[0]), Weeks: weeks}
	b.Run("file-v3", func(b *testing.B) {
		path := filepath.Join(dir, "file.jsonl.gz")
		for i := 0; i < b.N; i++ {
			w, err := store.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			writeAll(b, w)
			finish(b, w, path)
			b.SetBytes(bytes)
		}
		b.ReportMetric(float64(bytes), "archive-bytes")
	})
	b.Run("delta", func(b *testing.B) {
		path := filepath.Join(dir, "delta.store")
		for i := 0; i < b.N; i++ {
			w, err := store.CreateSegmented(path, 1)
			if err != nil {
				b.Fatal(err)
			}
			writeAll(b, w)
			finish(b, w, store.SegmentPath(path, 0))
			b.SetBytes(bytes)
		}
		b.ReportMetric(float64(bytes), "archive-bytes")
	})
	b.Run("delta-commit", func(b *testing.B) {
		path := filepath.Join(dir, "delta-commit.store")
		for i := 0; i < b.N; i++ {
			w, err := store.CreateSegmentedWith(path, 1, store.SegmentedOptions{Checkpoint: true, Run: run})
			if err != nil {
				b.Fatal(err)
			}
			writeCommitted(b, w)
			finish(b, w, store.SegmentPath(path, 0))
			b.SetBytes(bytes)
		}
		b.ReportMetric(float64(bytes), "archive-bytes")
	})
}

// BenchmarkFingerprintMemo measures one simulated re-crawl week: every
// page fingerprinted, bodies unchanged from the warmup pass — the
// paper's dominant case. "uncached" runs the full tokenizer + ruleset
// per page; "memo" hits the per-shard content-hash cache.
func BenchmarkFingerprintMemo(b *testing.B) {
	eco := webgen.New(webgen.Config{Domains: 300, Seed: 3})
	type page struct{ html, host string }
	var pages []page
	var bytes int64
	for i := range eco.Sites {
		if html, status := eco.PageHTML(i, 100); status == 200 {
			pages = append(pages, page{html, eco.Sites[i].Domain.Name})
			bytes += int64(len(html))
		}
	}
	if len(pages) == 0 {
		b.Fatal("no accessible pages")
	}
	b.Run("uncached", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				_ = fingerprint.Page(p.html, p.host)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		memo := fingerprint.NewMemo(0)
		for _, p := range pages {
			_ = memo.Page(p.html, p.host) // warm: the previous week's crawl
		}
		b.SetBytes(bytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				_ = memo.Page(p.html, p.host)
			}
		}
	})
}
