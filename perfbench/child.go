package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// unitSpec tells a child process which unit of work to run.
type unitSpec struct {
	Op     string `json:"op"`
	Seed   int64  `json:"seed"`
	Dir    string `json:"dir"`
	Shards int    `json:"shards"`
	Traced bool   `json:"traced"`
}

// unitResult is what a child reports on its last output line.
type unitResult struct {
	WallS  float64             `json:"wall_s"`
	Digest string              `json:"digest"`
	Parts  map[string]unitPart `json:"parts,omitempty"`
	Layers map[string]metric   `json:"layers,omitempty"`
	// ArchiveBytes is the size of the store and bundle a unit wrote.
	ArchiveBytes int64 `json:"archive_bytes,omitempty"`
}

// unitPart is one digest-checked part of a unit (archive-replay has two).
type unitPart struct {
	WallS  float64 `json:"wall_s"`
	Digest string  `json:"digest"`
}

// measured is a unit's result plus the child's own resource usage.
type measured struct {
	unitResult
	CPUS  float64
	RSSMB float64
}

// childMain runs one unit in this process ("child unit <spec>") or serves
// the audit service ("child serve").
func childMain(args []string) int {
	switch {
	case len(args) == 2 && args[0] == "unit":
		var spec unitSpec
		if err := json.Unmarshal([]byte(args[1]), &spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 2
		}
		res, err := runUnit(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", spec.Op, err)
			return 1
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	case len(args) == 1 && args[0] == "serve":
		return serveChild()
	}
	fmt.Fprintf(os.Stderr, "perfbench child: bad arguments %q\n", args)
	return 2
}

// spawnUnit runs one unit in a fresh child process and waits for it, so
// each unit's CPU time and peak RSS are its own.
func spawnUnit(spec unitSpec) (measured, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return measured{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return measured{}, err
	}
	cmd := exec.Command(self, "child", "unit", string(arg))
	cmd.SysProcAttr = dieWithParent()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	var m measured
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		m.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		m.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return m, fmt.Errorf("%s: %v: %s", spec.Op, err, strings.TrimSpace(errb.String()))
	}
	line := lastLine(out.String())
	if err := json.Unmarshal([]byte(line), &m.unitResult); err != nil {
		return m, fmt.Errorf("%s: bad child output %q: %v", spec.Op, line, err)
	}
	return m, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// server is a running audit-service child.
type server struct {
	cmd   *exec.Cmd
	stdin interface{ Close() error }
	base  string
	errb  *bytes.Buffer
}

// startServer starts an audit-service child and waits for its address.
func startServer() (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "child", "serve")
	cmd.SysProcAttr = dieWithParent()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errb := new(bytes.Buffer)
	cmd.Stderr = errb
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr ")
	if err != nil || !ok {
		stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("audit server did not start: %q %v %s", line, err, errb.String())
	}
	return &server{cmd: cmd, stdin: stdin, base: "http://" + addr, errb: errb}, nil
}

// stop shuts the server down (closing its stdin asks it to drain and exit)
// and returns its CPU seconds and peak RSS in MB.
func (s *server) stop() (cpuS, rssMB float64, err error) {
	s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = errors.Join(errors.New("audit server did not stop; killed"), <-done)
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		err = fmt.Errorf("audit server: %v: %s", err, s.errb.String())
	}
	return cpuS, rssMB, err
}

// dieWithParent makes a child process get killed when the benchmark dies,
// so an interrupted run leaves no unit or server behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
