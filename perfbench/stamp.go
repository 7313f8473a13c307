package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what a result was measured on. The compare tool refuses
// to compare results whose machine, toolchain, shape or settings differ;
// commit and source identify the code and may differ only between sides.
func stamp(workload string, seed int64, seconds int, traced bool, shape map[string]any) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"shape":      shape,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
}

// commit is the checked-out git commit, or "none" when the directory is
// not the root of a work tree (the source digest identifies the code then).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden and build directories), so two checkouts of the same code stamp
// the same digest whether or not they are git work trees.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(f)+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
