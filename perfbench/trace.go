package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dashdb/internal/clusterfs"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public function. Times are nanoseconds since the
// run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// open starts a span and returns its ID; close ends it.
func (t *tracer) open(parent int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ns(start)})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ns(end)
}

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := t.open(parent, name, start)
	t.close(id, end)
	return id
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == id {
			iv = append(iv, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), p.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			covered += v[1] - lo
			reach = v[1]
		}
	}
	return time.Duration(p.End - p.Start - covered)
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// counters is a snapshot of the process-wide counters the layers
// expose. Statements run one at a time while traced, so a delta between
// two snapshots belongs to the one statement between them.
type counters struct {
	loBytes, loPackets uint64
	fs                 clusterfs.Stats
	mallocs, allocB    uint64
	gcs                uint32
}

func snapshot(fs *clusterfs.FS) (counters, error) {
	var c counters
	var err error
	if c.loBytes, c.loPackets, err = loopbackTx(); err != nil {
		return c, err
	}
	c.fs = fs.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB, c.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return c, nil
}

// delta is what happened between two snapshots.
type delta struct {
	wireBytes, wirePackets     float64
	fsBytesW, fsWrites, fsRead float64
	allocs, allocBytes, gcs    float64
}

func (a counters) to(b counters) delta {
	return delta{
		wireBytes:   float64(b.loBytes - a.loBytes),
		wirePackets: float64(b.loPackets - a.loPackets),
		fsBytesW:    float64(b.fs.BytesWritten - a.fs.BytesWritten),
		fsWrites:    float64(b.fs.Writes - a.fs.Writes),
		fsRead:      float64(b.fs.BytesRead - a.fs.BytesRead),
		allocs:      float64(b.mallocs - a.mallocs),
		allocBytes:  float64(b.allocB - a.allocB),
		gcs:         float64(b.gcs - a.gcs),
	}
}

// loopbackTx reads the loopback interface's transmit byte and packet
// counters from /proc/net/dev. Every byte the shard RPC protocol and
// the shuffle exchange move in this single-host cluster crosses lo, and
// only there. The wire is measured here rather than through a counting
// TCP proxy on purpose: a proxy address in a shuffle PartLoc would
// defeat netSink.local's self-address check, so each server would send
// its own partitions over the network and the traced run would measure
// a different shuffle than the untraced one.
func loopbackTx() (bytes, packets uint64, err error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, 0, fmt.Errorf("loopback counters: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		// Receive: bytes packets errs drop fifo frame compressed
		// multicast; then transmit: bytes packets ...
		f := strings.Fields(rest)
		if len(f) < 10 {
			break
		}
		if bytes, err = strconv.ParseUint(f[8], 10, 64); err == nil {
			packets, err = strconv.ParseUint(f[9], 10, 64)
		}
		return bytes, packets, err
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("loopback counters: %w", err)
	}
	return 0, 0, fmt.Errorf("loopback counters: no lo interface in /proc/net/dev")
}
