// Package deploy simulates dashDB Local's container-based deployment
// (paper §II.A): an image registry, a Docker-like container lifecycle on
// each host, and — the substantive part — the automatic configuration
// component that detects the hardware and derives a fully tuned engine
// configuration (memory heaps, query parallelism, workload management)
// so that clusters deploy "fully configured and instantiated" in under
// 30 minutes with no manual tuning.
//
// The container runtime is a simulator (we cannot run Docker inside the
// library), but the auto-configuration algorithm is real code: the same
// EngineConfig it produces is used to open core engines and size MPP
// shards throughout this repository.
package deploy

import (
	"fmt"
	"runtime"

	"dashdb/internal/mpp"
)

// Hardware describes a target host, as detected or specified.
type Hardware struct {
	Cores        int
	RAMBytes     int64
	StorageBytes int64
}

// DetectHardware inspects the current machine (the automatic detection of
// CPU/core counts and RAM of §II.A). Storage is reported as a fixed
// conservative figure since the library does not probe filesystems.
func DetectHardware() Hardware {
	return Hardware{
		Cores:        runtime.NumCPU(),
		RAMBytes:     detectRAM(),
		StorageBytes: 20 << 30,
	}
}

// detectRAM estimates usable memory; without OS probing we derive a
// fleet-safe default from GOMAXPROCS-scaled heuristics.
func detectRAM() int64 {
	// 2 GiB per core is the entry-level ratio of the paper's examples
	// (8 GB / laptop, 6 TB / 72-way server ≈ 85 GB per core at the top).
	return int64(runtime.NumCPU()) * (2 << 30)
}

// MinimumHardware is the paper's entry-level requirement: 8 GB RAM and
// 20 GB storage.
var MinimumHardware = Hardware{Cores: 2, RAMBytes: 8 << 30, StorageBytes: 20 << 30}

// Meets reports whether the hardware satisfies a minimum.
func (h Hardware) Meets(min Hardware) bool {
	return h.Cores >= min.Cores && h.RAMBytes >= min.RAMBytes && h.StorageBytes >= min.StorageBytes
}

// EngineConfig is the fully derived engine configuration: every knob the
// paper lists as automatically adapted ("allocation of memory to
// functional purposes (caching, sorting, hashing, locking, logging, etc.),
// query parallelism degree, workload management infrastructure").
type EngineConfig struct {
	BufferPoolBytes int64 // page cache ("caching")
	SortHeapBytes   int64
	HashHeapBytes   int64
	LockListBytes   int64
	LogBufferBytes  int64
	Parallelism     int // query parallelism degree
	MaxConcurrency  int // WLM admission limit
	ShardsPerNode   int // MPP shard fan-out
}

// Memory shares, as fractions of host RAM: the buffer pool, sort heap
// and hash heap shares are mpp's (a cluster node applies them per
// shard); the remainder is left to the OS and working memory.
const (
	lockListShare  = 0.02
	logBufferShare = 0.03
)

// maxQueryParallelism caps the derived per-query parallelism degree. The
// scan parallelizes over sealed 1,024-tuple strides, and the open
// (unsealed) stride is a single morsel, so degrees beyond this bound buy
// nothing on all but enormous tables while multiplying per-worker state;
// very wide hosts (the paper's 72-way servers and up) spend the extra
// cores on concurrent queries via MaxConcurrency instead.
const maxQueryParallelism = 64

// AutoConfigure derives the engine configuration from hardware. It is a
// pure function: the same hardware always produces the same
// configuration, which is what makes container redeployment reproducible.
func AutoConfigure(hw Hardware) EngineConfig {
	cores := hw.Cores
	if cores < 1 {
		cores = 1
	}
	ram := hw.RAMBytes
	if ram < 1<<30 {
		ram = 1 << 30
	}
	cfg := EngineConfig{
		BufferPoolBytes: int64(float64(ram) * mpp.BufferPoolShare),
		SortHeapBytes:   int64(float64(ram) * mpp.SortHeapShare),
		HashHeapBytes:   int64(float64(ram) * mpp.HashHeapShare),
		LockListBytes:   int64(float64(ram) * lockListShare),
		LogBufferBytes:  int64(float64(ram) * logBufferShare),
		Parallelism:     clampInt(cores, 1, maxQueryParallelism),
		MaxConcurrency:  maxInt(2, cores/2),
		ShardsPerNode:   clampInt(cores/4, 1, 24),
	}
	return cfg
}

// QueryParallelism returns the intra-query parallelism degree the core
// engine should run scans and partitioned aggregation at. It is the
// getter the core layer consumes (plumbed through core.Config as a plain
// int, so core never imports deploy): always at least 1 and never above
// the morsel-parallelism cap, even for hand-edited configurations.
func (c EngineConfig) QueryParallelism() int {
	return clampInt(c.Parallelism, 1, maxQueryParallelism)
}

// TotalReserved returns the sum of all memory heaps; always strictly
// below the host RAM (property-tested).
func (c EngineConfig) TotalReserved() int64 {
	return c.BufferPoolBytes + c.SortHeapBytes + c.HashHeapBytes + c.LockListBytes + c.LogBufferBytes
}

// Validate sanity-checks a configuration against its hardware.
func (c EngineConfig) Validate(hw Hardware) error {
	if c.TotalReserved() > hw.RAMBytes {
		return fmt.Errorf("deploy: configuration reserves %d bytes on a %d-byte host", c.TotalReserved(), hw.RAMBytes)
	}
	if c.Parallelism < 1 || c.MaxConcurrency < 1 || c.ShardsPerNode < 1 {
		return fmt.Errorf("deploy: degenerate configuration %+v", c)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
