package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Env records where a result was measured.
type Env struct {
	Host         string `json:"host"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Started      string `json:"started"`
}

// captureEnv describes the host and the source tree rooted at root.
// The commit comes from git when root is a git checkout; SourceDigest
// (SHA-256 over every .go file and go.mod below root) identifies the
// code either way.
func captureEnv(root string) Env {
	host, _ := os.Hostname()
	return Env{
		Host:         host,
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
		Started:      time.Now().UTC().Format(time.RFC3339),
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

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quiesce brings the process and the file system to the same state
// before each set-up repetition: a forced GC, and a sync so that dirty
// pages left by earlier work (the build that just wrote the binary,
// previous repetitions) are not flushed by the set-up's own fsync.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// residentMB is the process's current resident set (VmRSS) in MiB.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler samples the resident set every 50 ms from start until
// peak is called.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, residentMB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the 90th percentile of its
// samples: the window's peak resident set without hinging on the
// timing of a single garbage collection.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	<-s.done
	return percentile(s.samples, 0.9)
}
