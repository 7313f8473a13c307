package store

// Filesystem fault injection: the write-path counterpart of the crawler's
// chaos schedules. A faultFS wraps the real filesystem and fails a chosen
// operation — short write, ENOSPC mid-segment, fsync error, crash-before-
// rename — at a deterministic byte budget. The schedule tests then prove
// the durability contract: whatever the fault, the on-disk store is either
// fully committed through the last checkpointed week or salvageable to
// exactly that state. No committed week may ever be lost.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var (
	errInjectedWrite  = errors.New("injected: no space left on device")
	errInjectedSync   = errors.New("injected: fsync failed")
	errInjectedRename = errors.New("injected: crash before rename")
)

// faultFS injects write-path faults at a byte budget. All segment and
// journal writes share one budget, so a schedule deterministically places
// the fault at a byte offset of the run.
type faultFS struct {
	mu sync.Mutex
	os osFS
	// budget is the bytes allowed before the write fault fires; -1 means
	// unlimited.
	budget int
	// shortWrite makes the faulting Write persist a partial prefix first —
	// a torn write — instead of failing cleanly like ENOSPC.
	shortWrite bool
	failSync   bool
	failRename bool
	wrote      int
	// faulted records that the budget fault actually fired.
	faulted bool
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fail := f.failRename
	f.mu.Unlock()
	if fail {
		return errInjectedRename
	}
	return f.os.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error { return f.os.Remove(name) }

func (f *faultFS) SyncDir(dir string) error {
	f.mu.Lock()
	fail := f.failSync
	f.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return f.os.SyncDir(dir)
}

type faultFile struct {
	fs *faultFS
	File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	ff.fs.wrote += len(p)
	if ff.fs.budget < 0 {
		return ff.File.Write(p)
	}
	if len(p) <= ff.fs.budget {
		ff.fs.budget -= len(p)
		return ff.File.Write(p)
	}
	// The fault point: optionally tear the write, then fail.
	n := 0
	if ff.fs.shortWrite && ff.fs.budget > 0 {
		n, _ = ff.File.Write(p[:ff.fs.budget])
	}
	ff.fs.budget = 0
	ff.fs.faulted = true
	return n, errInjectedWrite
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	fail := ff.fs.failSync
	ff.fs.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return ff.File.Sync()
}

// byWeek splits an observation stream into per-week groups.
func byWeek(obs []Observation, weeks int) [][]Observation {
	out := make([][]Observation, weeks)
	for _, o := range obs {
		out[o.Week] = append(out[o.Week], o)
	}
	return out
}

// runCheckpointedWrite drives a checkpointed segmented write week by week
// on fsys until a fault aborts it, simulating the crash with Abort (user-
// space buffers lost, OS-reached bytes kept). It returns the number of
// weeks whose CommitWeek succeeded.
func runCheckpointedWrite(t *testing.T, dir string, fsys FS, weeks [][]Observation, segments int, run RunID) (committed int) {
	t.Helper()
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for wk, obs := range weeks {
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				_ = w.Abort()
				return committed
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			_ = w.Abort()
			return committed
		}
		committed = wk + 1
	}
	if err := w.Close(); err != nil {
		_ = w.Abort()
		return committed
	}
	return committed
}

// checkSalvagedState asserts the durability contract on a salvaged store:
// every record of every committed week is present, and each segment's
// recovered records are an exact prefix of the records routed to it.
func checkSalvagedState(t *testing.T, dir string, weeks [][]Observation, segments, committedWeeks int) {
	t.Helper()
	perSeg := make([][]Observation, segments)
	committedPerSeg := make([]int, segments)
	for wk, obs := range weeks {
		for _, o := range obs {
			s := ShardOf(o.Domain, segments)
			perSeg[s] = append(perSeg[s], o)
			if wk < committedWeeks {
				committedPerSeg[s]++
			}
		}
	}
	for s := 0; s < segments; s++ {
		var got []Observation
		if err := ForEachSegment(dir, s, func(o Observation) error {
			got = append(got, o.Clone())
			return nil
		}); err != nil {
			t.Fatalf("segment %d unreadable after salvage: %v", s, err)
		}
		if len(got) < committedPerSeg[s] {
			t.Fatalf("segment %d: %d records recovered, committed weeks held %d — committed data lost",
				s, len(got), committedPerSeg[s])
		}
		if len(got) > len(perSeg[s]) {
			t.Fatalf("segment %d: %d records recovered, only %d ever written", s, len(got), len(perSeg[s]))
		}
		want := perSeg[s][:len(got)]
		for i := range got {
			a, b := got[i], want[i]
			if len(a.Libs) == 0 {
				a.Libs = nil
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("segment %d record %d: salvage returned a record that was never written\n got %+v\nwant %+v",
					s, i, a, b)
			}
		}
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
}

// TestFaultScheduleCommitsOrSalvages sweeps the write fault across the
// run — several byte budgets for clean ENOSPC and for torn short writes
// of a v3 store — and proves every crash point leaves a store Salvage
// restores to all committed weeks.
func TestFaultScheduleCommitsOrSalvages(t *testing.T) {
	const segments = 3
	run := RunID{Seed: 77, Domains: 15, Weeks: 6}
	weeks := byWeek(genObs(15, 6), 6)

	// Measure the fault-free byte volume to place budgets meaningfully.
	probe := &faultFS{budget: -1}
	if got := runCheckpointedWrite(t, filepath.Join(t.TempDir(), "probe"), probe, weeks, segments, run); got != 6 {
		t.Fatalf("fault-free run committed %d weeks, want 6", got)
	}
	total := probe.wrote
	if total == 0 {
		t.Fatal("probe measured zero bytes")
	}

	for _, shortWrite := range []bool{false, true} {
		name := "enospc"
		if shortWrite {
			name = "short-write"
		}
		for _, frac := range []int{5, 25, 45, 65, 85, 99} {
			budget := total * frac / 100
			t.Run("v3/"+name+"/"+itoa(frac)+"pct", func(t *testing.T) {
				fsys := &faultFS{budget: budget, shortWrite: shortWrite}
				dir := filepath.Join(t.TempDir(), "store")
				// committed may reach 6 when the fault lands past the last
				// CommitWeek (e.g. inside the manifest write): all weeks are
				// then committed and salvage must restore the full archive.
				committed := runCheckpointedWrite(t, dir, fsys, weeks, segments, run)
				if !fsys.faulted {
					t.Fatalf("budget %d of %d bytes did not fault", budget, total)
				}
				res, err := Salvage(dir)
				if err != nil {
					t.Fatalf("salvage after %d committed weeks: %v", committed, err)
				}
				if committed > 0 && !res.FromCheckpoint {
					t.Errorf("checkpoint present but salvage ignored it: %+v", res)
				}
				checkSalvagedState(t, dir, weeks, segments, committed)
			})
		}
	}
}

// TestFaultFsyncAbortsCommit: an fsync failure must fail CommitWeek (the
// week is not durable) and leave the previous commit salvageable.
func TestFaultFsyncAbortsCommit(t *testing.T) {
	const segments = 2
	run := RunID{Seed: 3, Domains: 10, Weeks: 4}
	weeks := byWeek(genObs(10, 4), 4)
	fsys := &faultFS{budget: -1}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 2; wk++ {
		for _, o := range weeks[wk] {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	fsys.mu.Lock()
	fsys.failSync = true
	fsys.mu.Unlock()
	for _, o := range weeks[2] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(2); !errors.Is(err, errInjectedSync) {
		t.Fatalf("CommitWeek with failing fsync: %v", err)
	}
	_ = w.Abort()
	if _, err := Salvage(dir); err != nil {
		t.Fatal(err)
	}
	checkSalvagedState(t, dir, weeks, segments, 2)
	if ck, err := ReadCheckpoint(dir); err != nil || ck.CommittedWeeks != 2 {
		t.Fatalf("checkpoint after failed commit: %+v, %v", ck, err)
	}
}

// TestFaultCrashBeforeRename: the checkpoint temp file is written but the
// rename never happens — the previous checkpoint must stay authoritative
// and the store salvageable to it.
func TestFaultCrashBeforeRename(t *testing.T) {
	const segments = 2
	run := RunID{Seed: 4, Domains: 12, Weeks: 4}
	weeks := byWeek(genObs(12, 4), 4)
	fsys := &faultFS{budget: -1}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	commitThrough := func(from, to int) {
		t.Helper()
		for wk := from; wk < to; wk++ {
			for _, o := range weeks[wk] {
				if err := w.Write(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.CommitWeek(wk); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitThrough(0, 3)
	fsys.mu.Lock()
	fsys.failRename = true
	fsys.mu.Unlock()
	for _, o := range weeks[3] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(3); !errors.Is(err, errInjectedRename) {
		t.Fatalf("CommitWeek with failing rename: %v", err)
	}
	_ = w.Abort()
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatalf("previous checkpoint must survive the torn commit: %v", err)
	}
	if ck.CommittedWeeks != 3 {
		t.Fatalf("checkpoint says %d weeks, want the pre-crash 3", ck.CommittedWeeks)
	}
	if _, err := Salvage(dir); err != nil {
		t.Fatal(err)
	}
	checkSalvagedState(t, dir, weeks, segments, 3)
}
