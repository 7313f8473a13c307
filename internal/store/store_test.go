package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample(week int) Observation {
	return Observation{
		Domain: "news1.com", Rank: 1, Week: week, Status: 200, Bytes: 2048,
		Country: "US", HasJS: true, WordPress: "5.6",
		Libs: []LibRecord{
			{Slug: "jquery", Version: "3.5.1", Known: true},
			{Slug: "bootstrap", Version: "3.3.7", Known: true, External: true,
				Host: "maxcdn.bootstrapcdn.com", SRI: true, Crossorigin: "anonymous"},
		},
		Flash:     &FlashRecord{ScriptAccessParam: true, Always: true},
		Resources: ResourceFlags{JavaScript: true, CSS: true, Flash: true},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Observation
	for week := 0; week < 5; week++ {
		obs := sample(week)
		want = append(want, obs)
		if err := w.Write(obs); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestForEachAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w, _ := Create(path)
	for i := 0; i < 10; i++ {
		_ = w.Write(sample(i))
	}
	_ = w.Close()
	sentinel := errors.New("stop")
	n := 0
	err := ForEach(path, func(Observation) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Errorf("abort: err %v after %d", err, n)
	}
}

func TestOpenErrors(t *testing.T) {
	if err := ForEach(filepath.Join(t.TempDir(), "missing.gz"), nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestOK(t *testing.T) {
	cases := []struct {
		status, bytes int
		ok            bool
	}{
		{200, 2048, true},
		{200, 399, false}, // the paper's empty-page threshold
		{200, 400, true},
		{404, 2048, false},
		{0, 0, false},
		{503, 900, false},
	}
	for _, c := range cases {
		obs := Observation{Status: c.status, Bytes: c.bytes}
		if got := obs.OK(); got != c.ok {
			t.Errorf("OK(status=%d bytes=%d) = %v, want %v", c.status, c.bytes, got, c.ok)
		}
	}
}

func TestLibLookup(t *testing.T) {
	obs := sample(0)
	if l, ok := obs.Lib("bootstrap"); !ok || l.Host != "maxcdn.bootstrapcdn.com" {
		t.Errorf("Lib lookup = %+v ok %v", l, ok)
	}
	if _, ok := obs.Lib("prototype"); ok {
		t.Error("absent lib should not be found")
	}
}

// randomObs builds an arbitrary observation from a rand source.
func randomObs(r *rand.Rand) Observation {
	obs := Observation{
		Domain: "d" + string(rune('a'+r.Intn(26))) + ".com",
		Rank:   r.Intn(10000), Week: r.Intn(201),
		Status: []int{0, 200, 403, 404, 500, 503}[r.Intn(6)],
		Bytes:  r.Intn(5000),
		HasJS:  r.Intn(2) == 0,
	}
	for i := 0; i < r.Intn(4); i++ {
		obs.Libs = append(obs.Libs, LibRecord{
			Slug:    []string{"jquery", "bootstrap", "moment"}[r.Intn(3)],
			Version: []string{"1.12.4", "3.3.7", "", "2.18.1"}[r.Intn(4)],
			Known:   true, External: r.Intn(2) == 0,
		})
	}
	if r.Intn(5) == 0 {
		obs.Flash = &FlashRecord{Always: r.Intn(2) == 0}
	}
	return obs
}

// Property: arbitrary observations survive a write/read cycle.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(seed int64) bool {
		i++
		r := rand.New(rand.NewSource(seed))
		var want []Observation
		for j := 0; j < 1+r.Intn(5); j++ {
			want = append(want, randomObs(r))
		}
		path := filepath.Join(dir, "q"+itoa(i)+".gz")
		w, err := Create(path)
		if err != nil {
			return false
		}
		for _, obs := range want {
			if w.Write(obs) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		got, err := ReadAll(path)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestCorruptFileErrors(t *testing.T) {
	dir := t.TempDir()
	// Not gzip at all.
	plain := filepath.Join(dir, "plain.gz")
	if err := os.WriteFile(plain, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(plain, func(Observation) error { return nil }); err == nil {
		t.Error("non-gzip file should error")
	}
	// Valid gzip, invalid JSON.
	bad := filepath.Join(dir, "bad.gz")
	f, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(bad, func(Observation) error { return nil }); err == nil {
		t.Error("corrupt JSON should error")
	}
}

// failWriter fails every write after the first failAfter bytes.
type failWriter struct {
	wrote     int
	failAfter int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.failAfter {
		return 0, errors.New("failWriter: write rejected")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestWriteCountsOnlySuccessfulWrites is the regression test for Count
// overcounting: a Write whose encode fails must not bump the counter —
// Count is the manifest's source of truth, so an overcount would record
// observations that never reached the file.
func TestWriteCountsOnlySuccessfulWrites(t *testing.T) {
	obs := sample(0)
	line, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Room for exactly two full v3 records ('=' + JSON + '\n'). Each write
	// is a new domain of the same length, so none takes the unchanged-
	// record fast path, and the small buffer surfaces the failure inside
	// the third Write.
	fw := &failWriter{failAfter: 2 * (len(line) + 2)}
	buf := bufio.NewWriterSize(fw, 16)
	w := &Writer{format: FormatDelta, buf: buf, enc: json.NewEncoder(buf),
		prev: make(map[string]Observation), open: true}
	for i := 0; i < 3; i++ {
		o := obs
		o.Domain = string(rune('a'+i)) + obs.Domain[1:]
		err := w.Write(o)
		if i < 2 && err != nil {
			t.Fatalf("write %d should succeed: %v", i, err)
		}
		if i == 2 && err == nil {
			t.Fatal("third write must fail")
		}
	}
	if got := w.Count(); got != 2 {
		t.Errorf("Count = %d after 2 successful + 1 failed write, want 2", got)
	}
}

// TestTruncatedGzipFooter: a store file cut mid-stream — a crashed or
// killed writer — must surface as a wrapped store error marking the
// stream corrupt, not succeed short or leak a bare decoder error.
func TestTruncatedGzipFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sever the gzip footer (8 bytes of CRC+length) and then some.
	if err := os.WriteFile(path, data[:len(data)-12], 0o644); err != nil {
		t.Fatal(err)
	}
	err = ForEach(path, func(Observation) error { return nil })
	if err == nil {
		t.Fatal("truncated gzip must error")
	}
	if !strings.Contains(err.Error(), "store:") {
		t.Errorf("error not store-wrapped: %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation should surface io.ErrUnexpectedEOF, got: %v", err)
	}
}

// TestGarbageMidFile: flipped bytes inside the compressed stream must
// surface as a wrapped store error, whichever layer (flate, gzip CRC,
// JSON) catches them first.
func TestGarbageMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+16 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ForEach(path, func(Observation) error { return nil })
	if err == nil {
		t.Fatal("corrupt gzip body must error")
	}
	if !strings.Contains(err.Error(), "store:") {
		t.Errorf("error not store-wrapped: %v", err)
	}
}

// TestWriterCloseReportsFlushFailure pins the property core.Run depends on:
// the writer buffers 64 KiB before the gzip stream, so a write failure on
// the underlying file may only surface at Close — and Close must report it
// rather than silently losing the gzip footer (which would make the file
// unreadable).
func TestWriterCloseReportsFlushFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(sample(0)); err != nil {
		t.Fatalf("buffered write should not fail: %v", err)
	}
	// Sabotage the underlying file: the buffered bytes can no longer be
	// flushed, exactly like a disk filling up mid-run.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close must report the flush failure, not swallow it")
	}
}

// TestWriterCloseFullDisk exercises the same failure end-to-end against a
// real unwritable device rather than a sabotaged handle.
func TestWriterCloseFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	w, err := Create("/dev/full")
	if err != nil {
		t.Skip("cannot open /dev/full for writing")
	}
	if err := w.Write(sample(0)); err != nil {
		t.Fatalf("buffered write should not fail: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close on a full disk must error")
	}
}
