package main

import (
	"io"
	"math"
	"net"
	"time"
)

// The host probe. The sandbox this benchmark runs in does not hold its
// speed: over minutes every timing of the server moves by a fifth to a
// third, all together (README, "The host probe"). The probe is a fixed
// piece of work that belongs to the harness and touches nothing of the
// program under test: round trips over a loopback connection to an echo
// goroutine, which cost what the host's wake-ups, kernel and caches cost
// at that moment. It runs while the server is idle — between the measured
// blocks, and before and after a set-up, an open or a recovery — and every
// timing is reported at the reference host speed:
//
//	reported = clock × (probeRefUs / probe)^e
//
// The exponent e is how strongly a phase follows the probe. It was chosen
// at the seed commit over 120 runs from three different hours, as the
// value that left the smallest spread in the worst of them: requests of
// the closed loop wait on nearly what the probe waits on; a set-up or a
// recovery keeps both cores computing for seconds, and compute the host
// leaves alone.
const (
	probeTrips    = 50
	probeMsgBytes = 256

	// probeRefUs is what one probe takes on the sandbox in its usual state,
	// so that reported and clock values agree on an ordinary day. It only
	// fixes the scale of the reported numbers.
	probeRefUs = 300.0

	closedLoopExponent = 0.85
	longPhaseExponent  = 0.5
)

// hostProbe is the echo connection and the goroutine behind it.
type hostProbe struct {
	c    net.Conn
	buf  []byte
	ln   net.Listener
	done chan struct{} // closed when the echo goroutine has returned
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &hostProbe{buf: make([]byte, probeMsgBytes), ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, probeMsgBytes)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if p.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-p.done
		return nil, err
	}
	return p, nil
}

// close ends the echo goroutine and waits for it.
func (p *hostProbe) close() {
	p.c.Close()
	p.ln.Close()
	<-p.done
}

func (p *hostProbe) trips() error {
	for i := 0; i < probeTrips; i++ {
		if _, err := p.c.Write(p.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(p.c, p.buf); err != nil {
			return err
		}
	}
	return nil
}

// sample runs the probe once, under a millisecond. An untimed pass goes
// first, so the reading depends on the host and not on what the server
// left in the caches a moment ago.
func (p *hostProbe) sample() (time.Duration, error) {
	if err := p.trips(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := p.trips()
	return time.Since(t0), err
}

// hostSpeed collects the probe samples of one phase.
type hostSpeed struct {
	p       *hostProbe
	samples []float64 // µs
}

// take adds n samples, back to back: between two blocks, where the next
// block must find the server as the last one left it.
func (h *hostSpeed) take(n int) error {
	for i := 0; i < n; i++ {
		d, err := h.p.sample()
		if err != nil {
			return err
		}
		h.samples = append(h.samples, us(d))
	}
	return nil
}

// takeSpaced adds n samples a pause apart: before and after a long phase.
// Which CPUs the two ends of the probe run on is settled anew after every
// pause and reads as 250, 330 or 420 µs on the same host; back-to-back
// samples would all share one draw, spaced ones average over them.
func (h *hostSpeed) takeSpaced(n int) error {
	for i := 0; i < n; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := h.take(1); err != nil {
			return err
		}
	}
	return nil
}

// probeUs is the phase's probe time, the median of its samples.
func (h *hostSpeed) probeUs() float64 { return median(h.samples) }

// factor is what a duration of the phase is multiplied by to stand at the
// reference host speed.
func (h *hostSpeed) factor(exponent float64) float64 {
	return math.Pow(probeRefUs/h.probeUs(), exponent)
}
