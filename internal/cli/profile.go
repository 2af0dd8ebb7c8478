package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profile carries the standard profiling flag values of cmd/serve. Register
// the flags before flag.Parse, then bracket the measured region with Start/stop:
//
//	var prof cli.Profile
//	prof.RegisterFlags()
//	flag.Parse()
//	stop, err := prof.Start()
//	if err != nil { ... }
//	defer stop()
//
// CPU profiling and execution tracing run for the Start..stop window; the
// heap profile is written at stop time (after a GC, so it reflects live
// objects, not garbage awaiting collection).
type Profile struct {
	CPU string
	Mem string
	Tr  string
}

// RegisterFlags installs -cpuprofile, -memprofile and -trace on the default
// flag set.
func (p *Profile) RegisterFlags() {
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&p.Tr, "trace", "", "write a runtime execution trace to this file")
}

// Start begins whichever collectors the flags request and returns the stop
// function that finishes them (idempotent, safe to call when no flag was
// set). Errors opening any requested file abort the whole start so a typo
// never silently produces a partial profile set.
func (p *Profile) Start() (stop func(), err error) {
	var (
		cpuF, trF *os.File
		stops     []func()
	)
	fail := func(err error) (func(), error) {
		for _, s := range stops {
			s()
		}
		return nil, err
	}
	if p.CPU != "" {
		if cpuF, err = os.Create(p.CPU); err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); cpuF.Close() })
	}
	if p.Tr != "" {
		if trF, err = os.Create(p.Tr); err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err = trace.Start(trF); err != nil {
			trF.Close()
			return fail(fmt.Errorf("trace: %w", err))
		}
		stops = append(stops, func() { trace.Stop(); trF.Close() })
	}
	mem := p.Mem
	done := false
	return func() {
		if done {
			return
		}
		done = true
		for _, s := range stops {
			s()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
