package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostStamp describes where and on what a result was measured: the
// host, the Go runtime settings, the code (the VCS revision when the
// build recorded one, and always a digest of the Go sources) and the
// workload seed.
func hostStamp(w bench, o options) map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + modified
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		src = "unknown: " + err.Error()
	}
	return map[string]string{
		"cpu":           cpuModel(),
		"nproc":         fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":    fmt.Sprint(childGOMAXPROCS),
		"gogc":          gogc,
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": src,
		"workload":      w.name,
		"seed":          fmt.Sprint(o.seed),
		"seconds":       fmt.Sprint(o.seconds),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (paths and
// contents, in path order), skipping hidden and build directories, so a
// result names the exact code it measured even without VCS metadata.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod")) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
