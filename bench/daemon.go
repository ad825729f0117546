package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything the benchmark writes: the schedd binary it
// builds, journals of the durable workload, traces and reports. It lives
// inside the checkout and is git-ignored.
const outDir = "bench/out"

// buildDaemon compiles cmd/schedd from the checkout's source. The
// benchmark only ever executes the result; it never imports the daemon.
func buildDaemon() (string, error) {
	bin := filepath.Join(outDir, "bin", "schedd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schedd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/schedd: %v\n%s", err, out)
	}
	return filepath.Abs(bin)
}

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// journalRoot picks where the durable workload's journals live. The
// workload exists to measure the program's write+fsync path, and on a
// disk that path is ~200 µs of device per record that drifts by tens of
// percent over minutes: the device would be the only thing measured. So
// the journals go on memory-backed storage — the checkout itself when it
// is on tmpfs, else a private directory under /dev/shm, removed after
// each round — and only when there is none do they go on the checkout's
// disk, with the stream cut to diskShrink-th so the run still ends.
func journalRoot() (dir string, memory bool, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", false, err
	}
	local, err := filepath.Abs(filepath.Join(outDir, "data"))
	if err != nil {
		return "", false, err
	}
	if onTmpfs(outDir) {
		return local, true, nil
	}
	if onTmpfs("/dev/shm") {
		if d, err := os.MkdirTemp("/dev/shm", "gensched-bench-"); err == nil {
			return d, true, nil
		}
	}
	return local, false, nil
}

// diskShrink divides the durable workload's stream when its journals
// have to live on a disk.
const diskShrink = 64

// daemon is one running schedd process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	bootSecs float64 // exec → first 200 from /healthz
	stderr   *tailBuffer
}

// live tracks running daemons so that every exit path — error, signal,
// panic in main — can stop what it started.
var live struct {
	sync.Mutex
	procs map[*daemon]struct{}
}

func killAll() {
	live.Lock()
	procs := make([]*daemon, 0, len(live.procs))
	for d := range live.procs {
		procs = append(procs, d)
	}
	live.Unlock()
	for _, d := range procs {
		d.kill()
	}
}

// tailBuffer keeps the last lines of a daemon's stderr for diagnostics.
type tailBuffer struct {
	sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.Lock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
	t.Unlock()
}

func (t *tailBuffer) String() string {
	t.Lock()
	defer t.Unlock()
	return strings.Join(t.lines, "\n")
}

var listenLine = regexp.MustCompile(`^schedd: (binary protocol|serving|federating) .*\bon (127\.0\.0\.1:\d+)`)

// startDaemon executes schedd and returns once /healthz answers 200.
// The daemon listens before it prints its address, so the first GET
// after the stderr line succeeds without polling; boot time is therefore
// a measurement, not a sleep granularity.
func startDaemon(bin string, args []string, wantBinary bool) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// If the benchmark dies without running its cleanup the kernel
	// still stops the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &tailBuffer{}}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*daemon]struct{})
	}
	live.procs[d] = struct{}{}
	live.Unlock()

	type addrs struct{ http, bin string }
	found := make(chan addrs, 1)
	go func() {
		// Reads until the daemon exits and the pipe closes; kill() waits
		// for the process, which ends this goroutine.
		var a addrs
		sent := false
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.add(line)
			if m := listenLine.FindStringSubmatch(line); m != nil {
				if m[1] == "binary protocol" {
					a.bin = m[2]
				} else {
					a.http = m[2]
				}
			}
			if !sent && a.http != "" && (a.bin != "" || !wantBinary) {
				sent = true
				found <- a
			}
		}
		if !sent {
			close(found)
		}
	}()
	select {
	case a, ok := <-found:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("schedd exited before listening:\n%s", d.stderr)
		}
		d.httpAddr, d.binAddr = a.http, a.bin
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("schedd did not listen within 60s:\n%s", d.stderr)
	}
	c, err := dial(d.httpAddr)
	if err == nil {
		_, err = c.get("/healthz")
		c.close()
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("schedd /healthz: %w", err)
	}
	d.bootSecs = time.Since(t0).Seconds()
	return d, nil
}

// kill stops the daemon with SIGKILL — the crash the durable workload
// recovers from, and the cheapest teardown for the others — and waits
// until the process has ended.
func (d *daemon) kill() {
	live.Lock()
	_, running := live.procs[d]
	delete(live.procs, d)
	live.Unlock()
	if !running {
		return
	}
	_ = d.cmd.Process.Kill() // already-exited is fine; Wait reports the rest
	_ = d.cmd.Wait()         // a killed process "fails" by design
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procSample is the daemon's cumulative resource use as the kernel
// reports it.
type procSample struct {
	cpuNs     int64 // on-CPU time summed over threads (schedstat: exact, not tick-sampled)
	syscr     int64 // read-class syscalls
	syscw     int64 // write-class syscalls
	ctxSw     int64 // voluntary + involuntary context switches, all threads
	peakRSSkB int64 // VmHWM
}

func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := fmt.Sprintf("/proc/%d", pid)
	io, err := os.ReadFile(base + "/io")
	if err != nil {
		return s, err
	}
	s.syscr, s.syscw, err = parseProcIO(string(io))
	if err != nil {
		return s, err
	}
	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return s, err
	}
	s.peakRSSkB = parseStatusField(string(status), "VmHWM:")
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		// A thread may exit between the listing and the read; Go
		// threads practically never do, and a vanished one has nothing
		// more to add.
		tb := base + "/task/" + t.Name()
		if b, err := os.ReadFile(tb + "/schedstat"); err == nil {
			s.cpuNs += parseSchedstat(string(b))
		}
		if b, err := os.ReadFile(tb + "/status"); err == nil {
			s.ctxSw += parseStatusField(string(b), "voluntary_ctxt_switches:") +
				parseStatusField(string(b), "nonvoluntary_ctxt_switches:")
		}
	}
	return s, nil
}

// selfCPUNs is the benchmark process's own CPU time.
func selfCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
