package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host the benchmark was defined on (a 2-vCPU KVM guest on a shared
// machine) changes speed by tens of percent over minutes, and the change
// is not uniform: allocation-heavy simulation slowed and sped up with the
// host's memory management, while compute-only kernels moved half as much.
// In ten-minute trials alternating simulation work with candidate
// kernels, the 30-s medians of grid cells spread 20-31% (interquartile
// range over median) and of a reuse sweep 24%. Divided by adjacent samples
// of an allocation and fresh-page kernel like refKernel below, they spread
// 3-6%; divided by an xorshift table kernel, a sort or a bytecode
// interpreter, 10-15%. Run in a separate process, the kernel tracked the
// host only when no collection ran inside it: with a ballast the ratio
// spread 5-6%, on a near-empty heap 16-17%.
//
// So host-time end-to-end metrics are reported at a fixed reference host
// speed: each time is multiplied by refNominalMS over the median reference
// sample taken next to it. A program that gets slower shows in full, since
// the reference does not run its code; a host that gets slower moves both
// alike. The unscaled figures and every reference sample are printed with
// every run. perfbench/README.md has the trials and the one metric left
// unscaled.

// refNominalMS is the reference kernel's time at the nominal host speed
// the metrics are expressed at: its median on the defining host.
const refNominalMS = 30.0

// refInterval is the least work time between two reference samples during
// a timed phase. A sample takes about 30 ms, so this costs about 8% of a
// run's time.
const refInterval = 350 * time.Millisecond

// refRepeats is the number of reference samples taken before and after
// each run and around each set-up.
const refRepeats = 5

// refNode is the reference kernel's allocation unit, a small linked
// record.
type refNode struct {
	next *refNode
	v    [6]uint64
}

// refKernel allocates 200k small linked records and a map over a quarter
// of them, then maps 16 MiB of fresh anonymous memory and touches every
// page. Those are the host costs the simulator's speed was seen to follow.
// It returns its time in milliseconds.
func refKernel() (float64, error) {
	start := time.Now()
	var head *refNode
	index := make(map[uint64]*refNode)
	for i := 0; i < 200_000; i++ {
		n := &refNode{next: head}
		n.v[0] = uint64(i)
		head = n
		if i%4 == 0 {
			index[uint64(i)*2654435761] = n
		}
		if i%50_000 == 0 {
			head = nil
		}
	}
	const size = 16 << 20
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, err
	}
	for i := 0; i < size; i += 4096 {
		mem[i] = byte(len(index))
	}
	if err := syscall.Munmap(mem); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}

// refBallast is the reference process's live heap. Against it the
// collector's goal leaves room for a whole sample, so after the untimed
// collection before each sample none runs inside it.
var refBallast []byte

// serveRef is the reference process: for every line on standard input it
// runs refKernel and writes its time as a line. It returns at end of
// input.
func serveRef() error {
	refBallast = make([]byte, 64<<20)
	for i := range refBallast {
		refBallast[i] = 1
	}
	// The first run grows the heap to its working size and is slower than
	// every later one; it is not a sample.
	if _, err := refKernel(); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		runtime.GC()
		t, err := refKernel()
		if err != nil {
			return err
		}
		if _, err := fmt.Printf("%.6f\n", t); err != nil {
			return err
		}
	}
	return in.Err()
}

// refSample is one reference measurement and when it ended.
type refSample struct {
	at time.Time
	ms float64
}

// hostClock samples refKernel in a separate process, so that the kernel
// runs on its own heap and garbage collector and nothing the program under
// test allocates or retains can change its time. The benchmark process
// waits while a sample runs.
type hostClock struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []refSample
	last    time.Time
	err     error
}

func startHostClock() (*hostClock, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-ref")
	cmd.Stderr = os.Stderr
	// The reference process dies with the benchmark even if the benchmark
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference process: %w", err)
	}
	return &hostClock{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample runs the kernel once and records its time. After the first
// failure it does nothing; err reports the failure.
func (c *hostClock) sample() {
	if c.err != nil {
		return
	}
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		c.err = fmt.Errorf("reference process: %w", err)
		return
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		c.err = fmt.Errorf("reference process: %w", err)
		return
	}
	ms, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		c.err = fmt.Errorf("reference process: %w", err)
		return
	}
	c.last = time.Now()
	c.samples = append(c.samples, refSample{c.last, ms})
}

// burst takes refRepeats samples, around a set-up or a load phase.
func (c *hostClock) burst() {
	for i := 0; i < refRepeats; i++ {
		c.sample()
	}
}

// tick samples the kernel when refInterval has passed since the last
// sample. It is called between units of timed work, never inside one.
func (c *hostClock) tick() {
	if time.Since(c.last) >= refInterval {
		c.sample()
	}
}

// between returns the median reference time of the samples taken from
// `from` to `to` and of the last one taken before `from`.
func (c *hostClock) between(from, to time.Time) float64 {
	lo := 0
	for lo+1 < len(c.samples) && c.samples[lo+1].at.Before(from) {
		lo++
	}
	var xs []float64
	for _, s := range c.samples[lo:] {
		if s.at.After(to) {
			break
		}
		xs = append(xs, s.ms)
	}
	return median(xs)
}

// scale is the factor that takes a host time measured from `from` to `to`
// to the nominal host speed.
func (c *hostClock) scale(from, to time.Time) float64 {
	return refNominalMS / c.between(from, to)
}

// all returns every sample's time in milliseconds.
func (c *hostClock) all() []float64 {
	xs := make([]float64, len(c.samples))
	for i, s := range c.samples {
		xs[i] = s.ms
	}
	return xs
}

// stop ends the reference process and waits for it.
func (c *hostClock) stop() error {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil && c.err == nil {
		c.err = fmt.Errorf("reference process: %w", err)
	}
	return c.err
}
