package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// splitBySegment routes a stream the way SegmentedWriter would.
func splitBySegment(obs []Observation, n int) [][]Observation {
	out := make([][]Observation, n)
	for _, o := range obs {
		s := ShardOf(o.Domain, n)
		out[s] = append(out[s], o)
	}
	return out
}

// readSegment collects one segment's records, copying the reused Libs.
func readSegment(t *testing.T, dir string, seg int) []Observation {
	t.Helper()
	var got []Observation
	if err := ForEachSegment(dir, seg, func(o Observation) error {
		o.Libs = append([]LibRecord(nil), o.Libs...)
		got = append(got, o)
		return nil
	}); err != nil {
		t.Fatalf("segment %d: %v", seg, err)
	}
	return got
}

// checkPrefix asserts got is an exact prefix of want.
func checkPrefix(t *testing.T, seg int, got, want []Observation) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("segment %d: %d records, only %d written", seg, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if len(a.Libs) == 0 {
			a.Libs = nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("segment %d record %d mismatch\n got %+v\nwant %+v", seg, i, a, b)
		}
	}
}

// TestSalvageIntactNoop: a clean archive passes Verify and Salvage must not
// touch it.
func TestSalvageIntactNoop(t *testing.T) {
	obs := genObs(12, 3)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, 3)
	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Intact || res.Total != len(obs) || res.TornSegments != 0 {
		t.Fatalf("salvage of intact store: %+v", res)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Salvaged {
		t.Error("intact store must not be marked salvaged")
	}
}

// TestSalvageScanRebuildsTornStore: no manifest, no checkpoint — the legacy
// crash shape. Salvage must keep each segment's longest valid record prefix
// and rebuild a manifest marked salvaged.
func TestSalvageScanRebuildsTornStore(t *testing.T) {
	const segments = 4
	obs := genObs(25, 4)
	perSeg := splitBySegment(obs, segments)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, segments)

	// Crash shape: manifest gone, one segment cut mid-stream, one with
	// garbage appended past its final gzip member.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 1), fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(SegmentPath(dir, 3), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not gzip at all")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact || res.FromCheckpoint {
		t.Fatalf("scan salvage took the wrong path: %+v", res)
	}
	if res.TornSegments != 2 {
		t.Errorf("TornSegments = %d, want 2", res.TornSegments)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Salvaged || man.Version != FormatDelta {
		t.Fatalf("salvaged manifest: %+v", man)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
	for s := 0; s < segments; s++ {
		got := readSegment(t, dir, s)
		checkPrefix(t, s, got, perSeg[s])
		// Untouched segments keep everything; the garbage-suffixed one only
		// lost the garbage.
		if s != 1 && len(got) != len(perSeg[s]) {
			t.Errorf("segment %d: %d records after salvage, want all %d", s, len(got), len(perSeg[s]))
		}
		if s == 1 && len(got) == len(perSeg[s]) {
			t.Errorf("segment 1 was truncated mid-stream but lost nothing — suspicious")
		}
	}
}

// TestSalvageFromCheckpointDropsUncommittedTail: with a checkpoint, salvage
// must restore exactly the committed weeks — a durable-but-uncommitted tail
// is amputated, not kept.
func TestSalvageFromCheckpointDropsUncommittedTail(t *testing.T) {
	const segments, weeks = 2, 3
	run := RunID{Seed: 21, Domains: 14, Weeks: weeks}
	perWeek := byWeek(genObs(14, weeks), weeks)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 2; wk++ {
		for _, o := range perWeek[wk] {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	// Week 2 reaches the disk (flushed, fsynced, member closed) but its
	// checkpoint is never written — a crash between segment commit and
	// journal commit.
	for _, o := range perWeek[2] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.segs {
		if _, err := w.segs[i].commit(); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Abort()

	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCheckpoint || res.TornSegments == 0 || res.DroppedBytes == 0 {
		t.Fatalf("checkpoint salvage result: %+v", res)
	}
	var committed []Observation
	for wk := 0; wk < 2; wk++ {
		committed = append(committed, perWeek[wk]...)
	}
	perSeg := splitBySegment(committed, segments)
	for s := 0; s < segments; s++ {
		got := readSegment(t, dir, s)
		if len(got) != len(perSeg[s]) {
			t.Fatalf("segment %d: %d records, want exactly the %d committed", s, len(got), len(perSeg[s]))
		}
		checkPrefix(t, s, got, perSeg[s])
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
}

// TestVerifyLyingManifest (satellite S2): ReadManifest only checks shape,
// so a manifest whose declared counts do not match the decodable data reads
// fine — Verify is the integrity mode that catches it.
func TestVerifyLyingManifest(t *testing.T) {
	obs := genObs(10, 2)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, 2)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Counts[0]++
	man.Total++
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err != nil {
		t.Fatalf("the lying manifest is shape-valid, ReadManifest must accept it: %v", err)
	}
	if _, err := Verify(dir); err == nil ||
		!strings.Contains(err.Error(), "seg-0000.jsonl.gz") ||
		!strings.Contains(err.Error(), "manifest declares") {
		t.Fatalf("Verify must name the lying segment: %v", err)
	}
}

// TestParallelReaderTruncatedSegment (satellite S3): one segment cut
// mid-gzip-stream. The parallel reader must fail with a store: error naming
// the torn segment, and the callback must only ever have seen complete,
// checksum-valid records that were actually written.
func TestParallelReaderTruncatedSegment(t *testing.T) {
	const segments = 4
	obs := genObs(30, 3)
	perSeg := splitBySegment(obs, segments)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, segments)
	fi, err := os.Stat(SegmentPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 2), fi.Size()*3/5); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := make([][]Observation, segments)
	err = ForEachSegmentedParallel(dir, func(seg int, o Observation) error {
		o.Libs = append([]LibRecord(nil), o.Libs...)
		mu.Lock()
		got[seg] = append(got[seg], o)
		mu.Unlock()
		return nil
	})
	if err == nil {
		t.Fatal("parallel read of a truncated segment must error")
	}
	if !strings.HasPrefix(err.Error(), "store:") || !strings.Contains(err.Error(), "seg-0002.jsonl.gz") {
		t.Fatalf("error must carry the store prefix and name the torn segment: %v", err)
	}
	for s := 0; s < segments; s++ {
		checkPrefix(t, s, got[s], perSeg[s])
	}
	if len(got[2]) >= len(perSeg[2]) {
		t.Errorf("segment 2 delivered %d records from a truncated file holding %d", len(got[2]), len(perSeg[2]))
	}
}

// writeV1Store builds a manifest-version-1 segmented store: plain gzip
// JSONL segments (writeV1File), no checkpoint.
func writeV1Store(t *testing.T, dir string, obs []Observation, segments int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	perSeg := splitBySegment(obs, segments)
	counts := make([]int, segments)
	for i, seg := range perSeg {
		writeV1File(t, SegmentPath(dir, i), seg)
		counts[i] = len(seg)
	}
	man := Manifest{Version: FormatPlain, Segments: segments,
		Partition: PartitionFNV1aDomain, Counts: counts, Total: len(obs)}
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1StoreBackCompat: version-1 stores must keep reading
// byte-identically through every entry point, pass Verify, and be
// salvageable (the salvage rewrite upgrades them to v3).
func TestV1StoreBackCompat(t *testing.T) {
	const segments = 3
	obs := genObs(18, 4)
	perSeg := splitBySegment(obs, segments)
	dir := filepath.Join(t.TempDir(), "v1")
	writeV1Store(t, dir, obs, segments)

	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != FormatPlain {
		t.Fatalf("manifest version = %d, want 1", man.Version)
	}
	var got []Observation
	if err := ForEach(dir, func(o Observation) error {
		got = append(got, o.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkSameByDomain(t, byDomain(obs), byDomain(got))
	for s := 0; s < segments; s++ {
		checkPrefix(t, s, readSegment(t, dir, s), perSeg[s])
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("intact v1 store fails verify: %v", err)
	}

	// Torn v1 store: truncate a segment, drop the manifest — the pre-
	// checkpoint crash shape. Salvage must recover the prefix and rewrite
	// the store as v3.
	torn := filepath.Join(t.TempDir(), "v1-torn")
	writeV1Store(t, torn, obs, segments)
	if err := os.Remove(filepath.Join(torn, ManifestName)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(SegmentPath(torn, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(torn, 0), fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	res, err := Salvage(torn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact || res.FromCheckpoint || res.TornSegments != 1 {
		t.Fatalf("v1 salvage result: %+v", res)
	}
	man2, err := ReadManifest(torn)
	if err != nil {
		t.Fatal(err)
	}
	if !man2.Salvaged || man2.Version != FormatDelta {
		t.Fatalf("salvaged v1 manifest: %+v", man2)
	}
	if _, err := Verify(torn); err != nil {
		t.Fatalf("salvaged v1 store fails verify: %v", err)
	}
	for s := 0; s < segments; s++ {
		got := readSegment(t, torn, s)
		checkPrefix(t, s, got, perSeg[s])
		if s != 0 && len(got) != len(perSeg[s]) {
			t.Errorf("segment %d: %d records after salvage, want all %d", s, len(got), len(perSeg[s]))
		}
	}
}
