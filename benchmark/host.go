package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/benchmark/measure"
)

// Host calibration runs no code of the repository: a fixed arithmetic loop
// and a one-byte ping-pong over raw pipes to a child of this binary. When
// these move between two runs, the host moved, and the benchmark's other
// numbers moved with it for that reason.

const pingPongEnv = "AF_BENCHMARK_PINGPONG"

// maybePingPongChild turns this process into the echo end of the ping-pong
// when it was started as one. It never returns in that case.
func maybePingPongChild() {
	if os.Getenv(pingPongEnv) == "" {
		return
	}
	var b [1]byte
	for {
		if _, err := io.ReadFull(os.Stdin, b[:]); err != nil {
			os.Exit(0) // the parent closed the pipe
		}
		if _, err := os.Stdout.Write(b[:]); err != nil {
			os.Exit(1)
		}
	}
}

// host is one calibration sample.
type host struct {
	SpinNS   float64 `json:"spin_ns"`    // one pass of the arithmetic loop
	PipeRTUS float64 `json:"pipe_rt_us"` // one byte to the child and back
	LoadAvg  float64 `json:"loadavg"`    // one-minute load average
}

var spinSink uint64

// spin is 4096 dependent multiply-adds: nothing to cache, predict or
// parallelise, so its time is the core's speed.
func spin() {
	x := spinSink | 1
	for i := 0; i < 4096; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

// calibrate measures the host for d: half on the arithmetic loop, half on
// the ping-pong.
func calibrate(d time.Duration) (host, error) {
	h := host{LoadAvg: loadAvg()}
	var spins []float64
	for start := time.Now(); time.Since(start) < d/2; {
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			spin()
		}
		spins = append(spins, float64(time.Since(t0).Nanoseconds())/16)
	}
	h.SpinNS = measure.Median(spins)

	self, err := os.Executable()
	if err != nil {
		return h, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), pingPongEnv+"=1")
	in, err := cmd.StdinPipe()
	if err != nil {
		return h, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return h, err
	}
	if err := cmd.Start(); err != nil {
		return h, err
	}
	var rts []float64
	b := []byte{42}
	for start := time.Now(); time.Since(start) < d/2; {
		t0 := time.Now()
		for i := 0; i < 16 && err == nil; i++ {
			if _, err = in.Write(b); err == nil {
				_, err = io.ReadFull(out, b)
			}
		}
		if err != nil {
			break
		}
		rts = append(rts, us(time.Since(t0))/16)
	}
	in.Close()
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return h, fmt.Errorf("host ping-pong: %w", err)
	}
	h.PipeRTUS = measure.Median(rts)
	return h, nil
}
