// Command bench is the repository's one benchmark: eight named workloads,
// each stressing different layers of the stack, measured end to end with
// tracing off and layer by layer — from outside, by timing calls into each
// package's exported functions and reading the counters the program already
// exports — in a separate traced pass. Every output is verified against its
// oracle. See README.md for the workload and metric glossary.
//
//	bash bench/run.sh                         # every workload, both passes
//	bash bench/run.sh -workload serve-closed  # one workload, both passes
//	bash bench/run.sh -repeat 5 -o A.json     # five untraced passes each
//	bash bench/run.sh -compare A.json B.json  # judge B against A by the bounds
//	bash bench/run.sh -write BENCHMARK.json   # regenerate the contract file
//
// The acceptance driver's form runs one pass of one workload and prints one
// JSON object as its last line:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// heapLimit paces the collector for the whole process: see steadyHeap.
const heapLimit = 768 << 20

// steadyHeap replaces the collector's default pacing (collect at twice the
// live heap) with a fixed memory limit and touches the heap's pages once, up
// front. At the default the heap of these workloads — a few MiB live, hundreds
// of MiB/s allocated — keeps shrinking and regrowing, and the runtime returns
// and re-faults pages as it does: 350,000 minor faults per 6 s of
// kernel-batch, 18 % of its CPU in the kernel. On a small VM the cost of a
// fresh page drifts by 2–3× over minutes. With the limit the pages stay
// resident (9,000 faults per 6 s), which removes that source of drift; what
// remains is the host's memory latency (README.md, "How steady it is"). A
// caller who sets GOGC or GOMEMLIMIT keeps their choice.
func steadyHeap() string {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return fmt.Sprintf("caller's GOGC=%q GOMEMLIMIT=%q", os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT"))
	}
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(heapLimit)
	ballast := make([]byte, heapLimit*3/4)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	ballast = nil
	runtime.GC()
	return fmt.Sprintf("GOGC=off, memory limit %d MiB, heap pre-faulted", heapLimit>>20)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// environment is recorded in every result file so that numbers from unlike
// hosts are never compared silently.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	ScratchDir string  `json:"scratch_dir"`
	ScratchFS  string  `json:"scratch_fs"` // where the journals are written
	Collector  string  `json:"collector"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func cstring(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

var fsNames = map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs"}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", int64(st.Type))
}

func describeHost(c *runCtx, collector string) environment {
	var un syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&un) == nil {
		kernel = cstring(un.Sysname[:]) + " " + cstring(un.Release[:])
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, Collector: collector, ScratchDir: c.tmp, ScratchFS: fsType(c.tmp), Seed: c.seed, Seconds: c.seconds,
		When: time.Now().UTC().Format(time.RFC3339)}
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	outDir   string
	outFile  string
	repeat   int
	compare  bool
	write    string
	scratch  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "drives input rotation, cold-spec seeds and scheduler seeds")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one pass measures a workload")
	flag.StringVar(&o.trace, "trace", "", "with -workload: 0 = one untraced pass, 1 = one traced pass, printed as one JSON line")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for span files and the result file")
	flag.StringVar(&o.outFile, "o", "", "result file (default <out>/result.json)")
	flag.IntVar(&o.repeat, "repeat", 1, "untraced passes per workload, at seeds seed, seed+1, …")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.StringVar(&o.write, "write", "", "write BENCHMARK.json to this path from the program's own tables and exit")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "scratch directory for journals; put it on a real filesystem")
	flag.Parse()
	if err := run(o); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.write != "" {
		return writeBenchmarkFile(o.write)
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors present; the generator would fight the program for them",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.scratch, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c := &runCtx{seed: o.seed, seconds: o.seconds, nproc: runtime.GOMAXPROCS(0), tmp: tmp}
	collector := steadyHeap()

	if o.workload != "" && o.trace != "" {
		if o.trace != "0" && o.trace != "1" {
			return fmt.Errorf("-trace wants 0 or 1")
		}
		return driverRun(&selected[0], c, o.trace == "1", o.outDir)
	}

	file := resultFile{Env: describeHost(c, collector)}
	failed := 0
	for i := range selected {
		// repeat untraced passes at consecutive seeds, then one traced pass
		for r := 0; r <= o.repeat; r++ {
			rc, traced := *c, r == o.repeat
			if !traced {
				rc.seed += int64(r)
			}
			res, err := runWorkload(&selected[i], &rc, traced, o.outDir)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			failed += res.Failed
			printResult(&selected[i], res)
		}
	}
	outFile, outDir := o.outFile, o.outDir
	if outFile == "" {
		outFile = filepath.Join(outDir, "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults: %s   spans: %s\n", outFile, filepath.Join(outDir, "trace-<workload>.json"))
	if failed > 0 {
		return fmt.Errorf("%d operations failed or mismatched their oracle", failed)
	}
	return nil
}

// driverRun is the acceptance driver's form: one pass, and as the last line
// of standard output one JSON object with the pass's metrics.
func driverRun(w *workload, c *runCtx, traced bool, outDir string) error {
	res, err := runWorkload(w, c, traced, outDir)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(body))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or mismatched their oracle", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(w *workload, res *result) {
	pass, defs := "end-to-end, untraced", endToEnd
	if res.Traced {
		pass, defs = "per-layer, traced", perLayer
	}
	fmt.Printf("\n== %s  [%s; op = %s]  seed %d\n", w.Name, w.Loop, w.Op, res.Seed)
	fmt.Printf("   %s: %d operations attempted, %d failed (failed_ratio %.4f); pass took %.1f s\n",
		pass, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Counts["pass_wall_s"])
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if res.Traced && v == 0 {
			continue // the layer did no work on this workload
		}
		fmt.Printf("   %-36s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if res.TailPercentile > 0 {
		fmt.Printf("   latency tail: p%g = %.3f ms over %d samples (highest percentile with ≥10 samples beyond it)\n",
			res.TailPercentile*100, res.TailMS, res.Samples)
	} else {
		fmt.Printf("   latency tail: %d samples support the median only\n", res.Samples)
	}
	if res.Counts["invalid"] > 0 {
		fmt.Printf("   INVALID: the generator ran late or a backlog grew; see client.* diagnostics\n")
	}
}
