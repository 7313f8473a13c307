package store

// Formats this package no longer writes: v1 (read-only) and v2 (retired).
// The reference encoders below build their on-disk shapes for the
// back-compat and refusal tests; FuzzStoreDecode drives hostile streams
// of every shape through the read side.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeV1File writes obs as a v1 file: one gzip member of plain JSON
// lines.
func writeV1File(t testing.TB, path string, obs []Observation) {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	enc := json.NewEncoder(gz)
	for _, o := range obs {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// v2Stream frames every record of obs the way v2 did:
// "#<len> <fnv1a-hex>\n" followed by the JSON line.
func v2Stream(t testing.TB, obs []Observation) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, o := range obs {
		payload, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New32a()
		h.Write(payload)
		fmt.Fprintf(&out, "#%d %08x\n%s\n", len(payload), h.Sum32(), payload)
	}
	return out.Bytes()
}

// writeV2File writes obs as a v2 segment, compressed at BestSpeed as the
// v2 writer did.
func writeV2File(t testing.TB, path string, obs []Observation) {
	t.Helper()
	var buf bytes.Buffer
	gz, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if _, err := gz.Write(v2Stream(t, obs)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV2Store builds a closed v2 store: framed segments, a version-2
// manifest, and the journal a v2 run left behind (one committed week per
// segment file, format field as given — 0 is the pre-field journal).
func writeV2Store(t *testing.T, dir string, obs []Observation, segments, ckFormat int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ck := Checkpoint{Version: CheckpointVersion, Format: ckFormat, CommittedWeeks: 1,
		Segments: segments, Offsets: make([]int64, segments), Counts: make([]int, segments)}
	for i, seg := range splitBySegment(obs, segments) {
		writeV2File(t, SegmentPath(dir, i), seg)
		fi, err := os.Stat(SegmentPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		ck.Offsets[i], ck.Counts[i] = fi.Size(), len(seg)
		ck.Total += len(seg)
	}
	man := Manifest{Version: retiredV2, Segments: segments, Partition: PartitionFNV1aDomain,
		Counts: ck.Counts, Total: ck.Total}
	for name, v := range map[string]any{ManifestName: man, CheckpointName: ck} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotDir reads every file of dir into memory.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// checkRetired asserts err is the loud v2 refusal: store-prefixed,
// naming the retired version.
func checkRetired(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errRetired) {
		t.Fatalf("%s: %v, want the retired-v2 refusal", what, err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "store:") || !strings.Contains(msg, "v2") {
		t.Fatalf("%s: refusal %q must carry the store prefix and name v2", what, msg)
	}
}

// TestRetiredV2Refused: a v2 stream, manifest or journal fails loudly
// through every entry point, and Salvage — with or without the manifest
// and journal that would send it to its scan — changes none of its bytes.
func TestRetiredV2Refused(t *testing.T) {
	obs := genObs(12, 3)
	for _, ckFormat := range []int{0, retiredV2} {
		dir := filepath.Join(t.TempDir(), "v2-"+itoa(ckFormat))
		writeV2Store(t, dir, obs, 2, ckFormat)
		before := snapshotDir(t, dir)

		_, err := ReadManifest(dir)
		checkRetired(t, "ReadManifest", err)
		_, err = ReadCheckpoint(dir)
		checkRetired(t, "ReadCheckpoint", err)
		checkRetired(t, "ForEach", ForEach(dir, func(Observation) error { return nil }))
		checkRetired(t, "ForEachSegment", ForEachSegment(dir, 0, func(Observation) error { return nil }))
		_, err = sniffFormat(SegmentPath(dir, 0))
		checkRetired(t, "sniffFormat", err)
		if _, err := Verify(dir); err == nil {
			t.Fatal("Verify accepted a v2 store")
		}
		_, _, err = ResumeSegmented(dir, SegmentedOptions{})
		checkRetired(t, "ResumeSegmented", err)
		_, err = Salvage(dir)
		checkRetired(t, "Salvage", err)
		if after := snapshotDir(t, dir); !maps.Equal(before, after) {
			t.Fatalf("journal format %d: refused entry points changed the store", ckFormat)
		}
	}

	// Torn shape: no manifest, no journal, and only one of two segments
	// in v2. This is the store salvage would otherwise scan, keeping zero
	// records of the v2 segment and renaming an empty v3 one over it.
	torn := filepath.Join(t.TempDir(), "torn")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	perSeg := splitBySegment(obs, 2)
	writeV1File(t, SegmentPath(torn, 0), perSeg[0])
	writeV2File(t, SegmentPath(torn, 1), perSeg[1])
	before := snapshotDir(t, torn)
	_, err := Salvage(torn)
	checkRetired(t, "Salvage (torn)", err)
	if after := snapshotDir(t, torn); !maps.Equal(before, after) {
		t.Fatal("Salvage changed a store with a v2 segment")
	}

	// A single v2 file reads the same way.
	single := filepath.Join(t.TempDir(), "v2.jsonl.gz")
	writeV2File(t, single, obs)
	_, err = ReadAll(single)
	checkRetired(t, "ReadAll (single file)", err)
}

// FuzzStoreDecode feeds hostile segment streams through sniffFormat and
// the ForEach decoders (v1, v3, and the v2/v4 refusals). The target
// gzips data itself unless raw is set, in which case data is the file
// bytes, gzip layer included. Invariants: no panic; every decode-side
// error carries the "store:" prefix; a '#'-led stream is refused as
// retired v2 and never decoded as v1; a '!'-led (v4 bundle) stream is
// refused without delivering an observation.
func FuzzStoreDecode(f *testing.F) {
	obs := genObs(3, 2)
	var v3 bytes.Buffer
	{
		path := filepath.Join(f.TempDir(), "seed.jsonl.gz")
		w, err := Create(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := v3.ReadFrom(gz); err != nil {
			f.Fatal(err)
		}
	}
	v1, _ := json.Marshal(obs[0])
	for _, seed := range [][]byte{
		v3.Bytes(), append(v1, '\n'), v2Stream(f, obs), []byte("!{\"k\":1}\n"),
		nil, []byte("{"), []byte("=garbage\n"), []byte("~3 a\n"), []byte("^{}\n"),
	} {
		f.Add(seed, false)
	}
	var gzSeed bytes.Buffer
	gz := gzip.NewWriter(&gzSeed)
	gz.Write(v3.Bytes())
	gz.Close()
	f.Add(gzSeed.Bytes(), true)

	path := filepath.Join(f.TempDir(), "seg.jsonl.gz")
	zw := gzip.NewWriter(nil) // reused: fuzz calls within a process are sequential
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		file := data
		if !raw {
			var buf bytes.Buffer
			zw.Reset(&buf)
			zw.Write(data)
			zw.Close()
			file = buf.Bytes()
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		format, serr := sniffFormat(path)
		n := 0
		derr := ForEach(path, func(Observation) error { n++; return nil })
		for _, err := range []error{serr, derr} {
			if err != nil && !strings.HasPrefix(err.Error(), "store:") {
				t.Fatalf("decode-side error without the store prefix: %v", err)
			}
		}
		retired := errors.Is(serr, errRetired) || (!raw && len(data) > 0 && data[0] == '#')
		if retired && (!errors.Is(serr, errRetired) || !errors.Is(derr, errRetired) || n != 0) {
			t.Fatalf("'#'-led stream not refused as v2: sniff %v, decode %v after %d records", serr, derr, n)
		}
		if format == FormatBundle && (derr == nil || n != 0) {
			t.Fatalf("bundle stream decoded as observations: %d records, %v", n, derr)
		}
	})
}
