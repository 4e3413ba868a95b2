package sched

import (
	"fmt"

	"rvcap/internal/accel"
	"rvcap/internal/bitstream"
	"rvcap/internal/dma"
	"rvcap/internal/driver"
	"rvcap/internal/fault"
	"rvcap/internal/fpga"
	"rvcap/internal/hist"
	"rvcap/internal/sim"
	"rvcap/internal/soc"
)

// Board is one simulated SoC shard: a named bundle of one sim.Kernel,
// one soc.SoC, one RV-CAP driver and one sched runtime. A Board is the
// unit the cluster dispatcher shards over — each Run builds the whole
// stack fresh on a private kernel, so boards are fully independent and
// a fleet of them can execute on separate host goroutines (via
// internal/runner) while every board's trace stays byte-deterministic.
//
// The Config is validated once at construction; Run can then be called
// any number of times (each call is an independent scenario) and with
// any externally supplied job stream, which is how the cluster
// dispatcher feeds a board its routed share of a multi-tenant workload.
type Board struct {
	// Name labels the board in reports ("B0", "B1", ... in a fleet).
	Name string

	cfg Config
}

// NewBoard validates cfg (after applying defaults) and returns the
// board. The same Config template can safely be used for every board of
// a fleet: Run never mutates it.
func NewBoard(name string, cfg Config) (*Board, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Board{Name: name, cfg: cfg}, nil
}

// Config returns the board's validated configuration (defaults applied).
func (b *Board) Config() Config { return b.cfg }

// validate rejects configurations that cannot run. Split from Run so
// the cluster dispatcher can fail fast on a bad board template before
// generating or routing any workload.
func (c Config) validate() error {
	if c.Amorphous {
		// Slots are bounded by the window's CLB capacity over the
		// narrowest footprint (12 columns / 2 per Sobel region).
		if c.RPs < 1 || c.RPs > 6 {
			return fmt.Errorf("sched: amorphous RPs = %d outside [1,6]", c.RPs)
		}
	} else if c.RPs < 1 || c.RPs > len(rpColumnPairs) {
		return fmt.Errorf("sched: RPs = %d outside [1,%d]", c.RPs, len(rpColumnPairs))
	}
	if c.CacheSlots < 2 {
		return fmt.Errorf("sched: CacheSlots = %d, need at least 2", c.CacheSlots)
	}
	if c.KillRP < 0 || c.KillRP > c.RPs {
		return fmt.Errorf("sched: KillRP = %d outside [0,%d]", c.KillRP, c.RPs)
	}
	if c.FaultRate < 0 || c.FaultRate >= 1 {
		return fmt.Errorf("sched: FaultRate = %v outside [0,1)", c.FaultRate)
	}
	return nil
}

// JobSource feeds a runtime its jobs one at a time, in arrival order.
// Next returns nil when the stream is exhausted; Total is the overall
// stream length, known up front. *WorkloadStream implements it for the
// bounded-memory path, sliceSource wraps a materialised []*Job.
type JobSource interface {
	Next() *Job
	Total() int
}

// sliceSource adapts a materialised job slice to JobSource.
type sliceSource struct {
	jobs []*Job
	i    int
}

func (s *sliceSource) Next() *Job {
	if s.i >= len(s.jobs) {
		return nil
	}
	j := s.jobs[s.i]
	s.i++
	return j
}

func (s *sliceSource) Total() int { return len(s.jobs) }

// Run plays the supplied job stream to completion on a fresh kernel and
// returns the board's service-level report. jobs must be sorted by
// arrival cycle (the workload generators and the cluster router both
// preserve that order); job IDs may be arbitrary — in a fleet they are
// the global arrival indices, which keeps the prefetch spread
// deterministic per board. The job structs are mutated in place
// (Dispatch/Completion/RP/Reconfigured) and are never recycled on this
// path, so callers keep their records after the run.
func (b *Board) Run(jobs []*Job) (*Report, error) {
	for i, job := range jobs {
		if job == nil {
			return nil, fmt.Errorf("sched: board %s: job %d is nil", b.Name, i)
		}
		if i > 0 && job.Arrival < jobs[i-1].Arrival {
			return nil, fmt.Errorf("sched: board %s: job %d arrives at %d, before job %d at %d",
				b.Name, i, job.Arrival, i-1, jobs[i-1].Arrival)
		}
		// Hand-built jobs may carry only the module name; the runtime
		// keys every hot path on the intern ID, so make it authoritative.
		job.ModuleID = Modules.Intern(job.Module)
	}
	return b.run(&sliceSource{jobs: jobs}, nil)
}

// RunStream plays a streaming job source to completion, recycling each
// completed job record back into the source when it implements
// Recycle(*Job) — the bounded-memory path: however long the run, only
// the in-flight jobs are live. Jobs from the source must carry their
// ModuleID (the workload generators do).
func (b *Board) RunStream(src JobSource) (*Report, error) {
	recycler, _ := src.(interface{ Recycle(*Job) })
	var recycle func(*Job)
	if recycler != nil {
		recycle = recycler.Recycle
	}
	return b.run(src, recycle)
}

func (b *Board) run(src JobSource, recycle func(*Job)) (*Report, error) {
	cfg := b.cfg
	k := sim.NewKernel()
	s, err := soc.New(k, soc.Config{SkipDefaultPartition: true})
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		board:     b,
		cfg:       cfg,
		s:         s,
		d:         driver.NewRVCAP(s),
		src:       src,
		totalJobs: src.Total(),
		recycle:   recycle,
		lat:       hist.New(),
		images:    make(map[imgKey]*bitstream.Image),
		wake:      sim.NewSignal(k, "sched.wake"),
		stop:      sim.NewLatchedSignal(k, "sched.stop"),
	}

	if cfg.FaultRate > 0 {
		plan, err := fault.New(fault.Uniform(cfg.FaultSeed, cfg.FaultRate))
		if err != nil {
			return nil, err
		}
		r.plan = plan
		// DMA transfer faults on the reconfiguration read channel.
		s.RVCAP.DMA.Inject = func(xfer uint64) dma.Fault {
			stall, fail := plan.DMA(xfer)
			return dma.Fault{Stall: stall, Fail: fail}
		}
	}
	if r.plan != nil || cfg.KillRP > 0 {
		// Stuck-synced ICAP: the plan's transient faults plus the
		// hard-failed partition's permanent one.
		s.ICAP.StuckFault = func(n uint64) bool {
			if r.killArmed {
				return true
			}
			return r.plan != nil && r.plan.StuckSync(n)
		}
	}

	if cfg.Amorphous {
		// Region slots, the placement allocator and one relocatable
		// prototype image per module.
		if err := r.setupAmorphous(k); err != nil {
			return nil, err
		}
	} else {
		// Fixed pre-cut partitions and their per-module partial
		// bitstreams. Partitions have disjoint frame spans, so each
		// (partition, module) pair is a distinct image with its own
		// signature.
		for i := 0; i < cfg.RPs; i++ {
			cols := rpColumnPairs[i]
			part, _, err := s.AddPartition(fmt.Sprintf("SRP%d", i), 0, 0, cols[0], cols[1], fpga.DefaultRPReserve)
			if err != nil {
				return nil, err
			}
			r.rps = append(r.rps, &rpState{
				name:       part.Name,
				part:       part,
				start:      sim.NewSignal(k, part.Name+".start"),
				residentID: -1,
			})
			natural := 0
			for _, module := range accel.Filters {
				if natural == 0 {
					probe, err := bitstream.Partial(s.Fabric.Dev, part, module, bitstream.Options{})
					if err != nil {
						return nil, err
					}
					natural = probe.SizeBytes()
				}
				num, den := padFactor(module)
				im, err := bitstream.Partial(s.Fabric.Dev, part, module,
					bitstream.Options{PadToBytes: (natural*num/den + 3) &^ 3})
				if err != nil {
					return nil, err
				}
				bitstream.Register(s.Fabric, im)
				r.images[imgKey{rp: i, mod: Modules.Intern(module)}] = im
			}
		}
	}

	fetchSig := sim.NewSignal(k, "sched.fetch")
	r.cache, err = newBitCache(s.DDR, cfg.CacheSlots, r.images, fetchSig, r.wake)
	if err != nil {
		return nil, err
	}
	r.cache.plan = r.plan

	// Kernel-confined processes: arrivals, SD staging, partition
	// servers, and the scheduling CPU.
	k.Go("sched.arrivals", r.runArrivals)
	//lint:ignore wait-graph fetcher/dispatcher/partition wake heartbeat: wake is re-fired on every queue and cache state change, stop is latched at end-of-scenario, and each wait re-checks its condition, so the static cycle is designed progress signalling, not a deadlock
	k.Go("sched.fetch", func(p *sim.Proc) { r.cache.runFetcher(p, r.stop) })
	for i := range r.rps {
		i := i
		k.Go(r.rps[i].name, func(p *sim.Proc) { r.runRP(p, i) })
	}
	var runErr error
	k.Go("sched.cpu", func(p *sim.Proc) { runErr = r.runDispatcher(p) })
	k.Run()

	if runErr != nil {
		return nil, runErr
	}
	if r.completed != r.totalJobs {
		return nil, fmt.Errorf("sched: board %s: only %d of %d jobs completed", b.Name, r.completed, r.totalJobs)
	}
	r.kernelEvents = k.Events()
	return r.buildReport(), nil
}
