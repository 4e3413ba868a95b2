package rvcap

import (
	"bytes"
	"fmt"

	"rvcap/internal/accel"
	"rvcap/internal/driver"
	"rvcap/internal/fat32"
	"rvcap/internal/sim"
	"rvcap/internal/soc"
)

// Session is the software-side handle passed to System.Run: every method
// executes on the simulated RISC-V hart with full MMIO timing, so the
// returned Timing values are hardware measurements, not host estimates.
type Session struct {
	p   *sim.Proc
	sys *System
}

// Reconfigure loads a module into the partition through the RV-CAP
// controller (the paper's Listing 1 flow, non-blocking/interrupt mode).
func (ses *Session) Reconfigure(m *Module) (Timing, error) {
	res, err := ses.sys.drv.InitReconfigProcess(ses.p, m.desc)
	if err != nil {
		return Timing{}, err
	}
	return Timing{
		DecisionMicros: res.DecisionMicros,
		ReconfigMicros: res.ReconfigMicros,
		Bytes:          res.Bytes,
	}, nil
}

// ReconfigureBlocking is Reconfigure with the DMA status-register
// polling mode instead of the completion interrupt.
func (ses *Session) ReconfigureBlocking(m *Module) (Timing, error) {
	prev := ses.sys.drv.Mode
	ses.sys.drv.Mode = driver.Blocking
	defer func() { ses.sys.drv.Mode = prev }()
	return ses.Reconfigure(m)
}

// ReconfigureHWICAP loads a module through the AXI_HWICAP vendor
// baseline (the paper's Listing 2 flow) with the given store-loop
// unroll factor (0 = the paper's 16).
func (ses *Session) ReconfigureHWICAP(m *Module, unroll int) (Timing, error) {
	prev := ses.sys.hwicap.Unroll
	if unroll > 0 {
		ses.sys.hwicap.Unroll = unroll
	} else {
		ses.sys.hwicap.Unroll = 16
	}
	defer func() { ses.sys.hwicap.Unroll = prev }()
	res, err := ses.sys.hwicap.InitReconfigProcess(ses.p, m.desc)
	if err != nil {
		return Timing{}, err
	}
	return Timing{ReconfigMicros: res.ReconfigMicros, Bytes: res.Bytes}, nil
}

// Workload DDR addresses used by FilterImage.
const (
	filterInAddr  = 0x0020_0000
	filterOutAddr = 0x0030_0000
)

// FilterImage streams src through the currently loaded filter RM in
// acceleration mode and returns the output image and the measured T_c.
func (ses *Session) FilterImage(src *Image) (*Image, Timing, error) {
	if ses.sys.hw.RP == nil || ses.sys.hw.RP.Active() == "" {
		return nil, Timing{}, driver.ErrNoActiveModule
	}
	if src.W != accel.DefaultWidth || src.H != accel.DefaultHeight {
		return nil, Timing{}, fmt.Errorf("rvcap: built-in filter RMs are synthesised for %dx%d images",
			accel.DefaultWidth, accel.DefaultHeight)
	}
	ses.sys.hw.DDR.Load(filterInAddr, src.Pix)
	prev := ses.sys.drv.Mode
	ses.sys.drv.Mode = driver.Blocking // T_c is the pure accelerator time
	// Restore via defer: a PanicError unwinding out of RunAccelerator
	// (the kernel rethrows process panics) must not leave the shared
	// driver stuck in Blocking mode for every later Session call.
	defer func() { ses.sys.drv.Mode = prev }()
	res, err := ses.sys.drv.RunAccelerator(ses.p, filterInAddr, filterOutAddr, uint32(len(src.Pix)))
	if err != nil {
		return nil, Timing{}, err
	}
	// Peek returns a fresh copy, which becomes the image's pixels.
	out := &Image{W: src.W, H: src.H, Pix: ses.sys.hw.DDR.Peek(filterOutAddr, len(src.Pix))}
	return out, Timing{ComputeMicros: res.ComputeMicros, Bytes: res.Bytes}, nil
}

// MountSD initialises the SD card over SPI and mounts its FAT32 volume.
func (ses *Session) MountSD() (*SDVolume, error) {
	sd := driver.NewSD(ses.sys.hw)
	if err := sd.Init(ses.p); err != nil {
		return nil, err
	}
	fs, err := fat32.Mount(ses.p, sd)
	if err != nil {
		return nil, err
	}
	return &SDVolume{ses: ses, fs: fs}, nil
}

// SDVolume is a mounted FAT32 volume on the SD card.
type SDVolume struct {
	ses *Session
	fs  *fat32.FS
}

// List returns the volume's root-directory file names.
func (v *SDVolume) List() ([]string, error) {
	ents, err := v.fs.List(v.ses.p)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, nil
}

// ReadFile returns a file's contents.
func (v *SDVolume) ReadFile(name string) ([]byte, error) {
	return v.fs.ReadFile(v.ses.p, name)
}

// WriteFile creates or overwrites a file.
func (v *SDVolume) WriteFile(name string, data []byte) error {
	return v.fs.WriteFile(v.ses.p, name, data)
}

// LoadModules implements Listing 1's init_RModules for the given
// modules: each module's bitstream file is copied from the card to its
// DDR staging address. The on-card contents must match the registered
// bitstream, otherwise the subsequent reconfiguration is rejected by the
// configuration CRC — exactly what happens with a stale file on real
// hardware.
func (v *SDVolume) LoadModules(mods ...*Module) error {
	descs := make([]*driver.ReconfigModule, len(mods))
	for i, m := range mods {
		descs[i] = m.desc
	}
	return driver.InitRModules(v.ses.p, v.ses.sys.hw, v.fs, descs)
}

// Elapsed reads the CLINT real-time counter in microseconds.
func (ses *Session) Elapsed() (float64, error) {
	t := driver.NewTimer(ses.sys.hw)
	ticks, err := t.Now(ses.p)
	if err != nil {
		return 0, err
	}
	return driver.TicksToMicros(ticks), nil
}

// Printf writes to the SoC UART (visible via System.HW().UART.Output()).
func (ses *Session) Printf(format string, args ...interface{}) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, format, args...)
	for _, c := range buf.Bytes() {
		if err := ses.sys.hw.Hart.Store32(ses.p, soc.UARTBase+soc.UARTTx, uint32(c)); err != nil {
			return err
		}
	}
	return nil
}

// Sleep advances simulated time by the given microseconds (idle CPU).
func (ses *Session) Sleep(micros float64) {
	ses.p.Sleep(sim.FromMicros(micros))
}
