// Package baselines provides executable models of the state-of-the-art
// DPR controllers the paper compares against in Table II. Each baseline
// drives the same simulated ICAP/configuration engine as RV-CAP, but
// paces the word stream at its published effective rate and carries its
// published resource footprint, so the comparison table is regenerated
// by running transfers rather than by quoting numbers.
//
// The two RISC-V rows of Table II (RV-CAP itself and AXI_HWICAP with
// RV64GC) are NOT modelled here — they are measured end-to-end on the
// full simulated SoC by the experiments package; this package covers the
// eight prior-work rows.
package baselines

import (
	"fmt"

	"rvcap/internal/fpga"
	"rvcap/internal/sim"
)

// Spec describes one prior-work DPR controller.
type Spec struct {
	// Name and Ref identify the controller and its citation in the
	// paper's Table II.
	Name string
	Ref  string
	// Processor is the SoC processor managing DPR on the original
	// platform.
	Processor string
	// CustomDrivers reports whether the work ships custom software
	// drivers for DPR management (the checkmark column).
	CustomDrivers bool
	// Resources is the published controller footprint.
	Resources fpga.Resources
	// FreqMHz is the controller clock (100 MHz for every row).
	FreqMHz int

	// Data-path model: cycles per 32-bit configuration word as a
	// rational (calibrated: 400 MB/s divided by the published
	// throughput), plus a fixed per-transfer setup cost.
	cpwNum, cpwDen int
	setup          sim.Time

	// SafeMode validates the bitstream (CRC scan) before committing it
	// to the ICAP, as the Di Carlo et al. controller does.
	SafeMode bool
}

// All lists the eight prior-work rows of Table II in paper order.
var All = []Spec{
	{
		Name: "Vipin et al.", Ref: "[12]", Processor: "MicroBlaze",
		Resources: fpga.Resources{LUT: 586, FF: 672, BRAM: 8},
		FreqMHz:   100,
		// 399.8 MB/s: a DMA master saturating the ICAP with only a
		// per-transfer setup gap.
		cpwNum: 2001, cpwDen: 2000, setup: 120,
	},
	{
		Name: "ZyCAP", Ref: "[13]", Processor: "ARM", CustomDrivers: true,
		Resources: fpga.Resources{LUT: 620, FF: 806, BRAM: 0},
		FreqMHz:   100,
		// 382 MB/s: HP-port AXI master with inter-burst stalls.
		cpwNum: 1047, cpwDen: 1000, setup: 150,
	},
	{
		Name: "Di Carlo et al.", Ref: "[14]", Processor: "LEON3", CustomDrivers: true,
		Resources: fpga.Resources{LUT: 588, FF: 278, BRAM: 1},
		FreqMHz:   100,
		// 395.4 MB/s with the safe-DPR CRC scan ahead of the transfer.
		cpwNum: 1012, cpwDen: 1000, setup: 200, SafeMode: true,
	},
	{
		Name: "AC_ICAP", Ref: "[16]", Processor: "MicroBlaze",
		Resources: fpga.Resources{LUT: 1286, FF: 1193, BRAM: 22},
		FreqMHz:   100,
		// 380.47 MB/s from on-chip BRAM staging.
		cpwNum: 10513, cpwDen: 10000, setup: 180,
	},
	{
		Name: "RT-ICAP", Ref: "[15]", Processor: "Patmos", CustomDrivers: true,
		Resources: fpga.Resources{LUT: 289, FF: 105, BRAM: 0},
		FreqMHz:   100,
		// 382.2 MB/s, time-predictable word pump (optionally fed from a
		// compressed image; see TransferCompressed).
		cpwNum: 10466, cpwDen: 10000, setup: 100,
	},
	{
		Name: "PCAP", Ref: "[24]", Processor: "ARM",
		Resources: fpga.Resources{},
		FreqMHz:   100,
		// 128 MB/s: the Zynq processor configuration access port — no
		// fabric resources, but a quarter of the ICAP bandwidth.
		cpwNum: 3125, cpwDen: 1000, setup: 400,
	},
	{
		Name: "Xilinx PRC", Ref: "[25]", Processor: "ARM",
		Resources: fpga.Resources{LUT: 1171, FF: 1203, BRAM: 0},
		FreqMHz:   100,
		// 396.5 MB/s: the vendor partial reconfiguration controller.
		cpwNum: 10088, cpwDen: 10000, setup: 160,
	},
	{
		Name: "Xilinx AXI_HWICAP", Ref: "[26]", Processor: "ARM",
		Resources: fpga.Resources{LUT: 538, FF: 688, BRAM: 0},
		FreqMHz:   100,
		// 14.3 MB/s: ARM-driven keyhole writes (faster than the Ariane
		// deployment because the Zynq PS issues posted writes).
		cpwNum: 27972, cpwDen: 1000, setup: 300,
	},
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("baselines: unknown controller %q", name)
}

// Transfer feeds words into the ICAP at the controller's modelled rate,
// returning the transfer time in cycles. It must be called from within
// a simulation process.
func (s Spec) Transfer(p *sim.Proc, icap *fpga.ICAP, words []uint32) sim.Time {
	start := p.Now()
	p.Sleep(s.setup)
	if s.SafeMode {
		// The safe controller streams the image through its CRC/ECC
		// checker before committing: one pass at one word per cycle.
		p.Sleep(sim.Time(len(words)))
	}
	// Words are pumped in chunks: the ICAP model is functional, so the
	// pacing can be charged per chunk without changing the aggregate
	// rate (exact rational accounting, no drift).
	const chunk = 256
	credit := 0
	for i := 0; i < len(words); i += chunk {
		end := i + chunk
		if end > len(words) {
			end = len(words)
		}
		icap.WriteWords(words[i:end])
		credit += s.cpwNum * (end - i)
		p.Sleep(sim.Time(credit / s.cpwDen))
		credit %= s.cpwDen
	}
	return p.Now() - start
}

// MeasureThroughput runs a transfer of words on a fresh process and
// returns MB/s. The safe-mode pre-scan is excluded, matching how the
// original papers report pure reconfiguration throughput.
func (s Spec) MeasureThroughput(k *sim.Kernel, icap *fpga.ICAP, words []uint32) float64 {
	var mbps float64
	k.Go("baseline."+s.Name, func(p *sim.Proc) {
		pre := s.SafeMode
		s.SafeMode = false
		took := s.Transfer(p, icap, words)
		s.SafeMode = pre
		mbps = sim.MBPerSec(len(words)*4, took)
	})
	k.Run()
	return mbps
}
