package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"time"
)

// restartInto ends the current incarnation with sig and starts the next
// over the same data directory. It returns exec-to-ready of the new one
// and the CPU it spent getting there. Ready means /readyz says so with no
// train pending and a probe predict answers 200.
func (h *harness) restartInto(sig syscall.Signal) (open time.Duration, cpu time.Duration, err error) {
	if err = h.stop(sig); err != nil {
		return 0, 0, err
	}
	if err = h.start(); err != nil {
		return 0, 0, err
	}
	o := op{kind: opPredict, obj: 0, horizons: []int{5}, k: 1}
	o.encode(h.f)
	if status, body, derr := h.conns[0].do(o.req); derr != nil || status != 200 {
		return 0, 0, fmt.Errorf("probe predict after restart: status %d err %v body %.200s", status, derr, body)
	}
	open = time.Since(h.srv.started)
	u, err := h.srv.usage()
	return open, u.cpu, err
}

// durable checks that the recovered server holds every acknowledged point:
// each trained object's point count, and the fleet's object count.
func (h *harness) durable(ticks int, res *result) error {
	failed := 0
	var firstErr error
	for i := range h.f.trained {
		o := &h.f.trained[i]
		status, body, err := h.conns[i%len(h.conns)].do(httpRequest("GET", "/objects/"+o.id+"/stats", nil))
		if err != nil {
			return fmt.Errorf("durability check: %w", err)
		}
		var st struct{ Points int }
		if status != 200 || json.Unmarshal(body, &st) != nil || st.Points != o.cut+ticks {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("durability: %s has %d points after recovery, %d were acknowledged (status %d)", o.id, st.Points, o.cut+ticks, status)
			}
		}
	}
	status, body, err := h.conns[0].do(httpRequest("GET", "/readyz", nil))
	if err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	var rz struct {
		Health struct {
			Objects int `json:"objects"`
		} `json:"health"`
	}
	if want := len(h.f.trained) + len(h.f.cold); status != 200 || json.Unmarshal(body, &rz) != nil || rz.Health.Objects != want {
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("durability: %d objects after recovery, want %d", rz.Health.Objects, want)
		}
	}
	res.count(len(h.f.trained)+1, failed, firstErr)
	return nil
}

// probedRestart is restartInto with the host probe on both sides: before,
// while the old incarnation is idle, and after, when the new one is.
func (h *harness) probedRestart(sig syscall.Signal, hs *hostSpeed) (open, cpu time.Duration, err error) {
	if err = hs.takeSpaced(probeAround); err != nil {
		return
	}
	if open, cpu, err = h.restartInto(sig); err != nil {
		return
	}
	err = hs.takeSpaced(probeAround)
	return
}

// runRestart is the persistence workload. After set-up the server is
// checkpointed (SIGTERM) and opened from the snapshot alone, several times
// over; then a WAL tail is ingested and the server is crashed (SIGKILL) and
// recovered several times over. An open or a recovery writes nothing the
// next one reads, so every sample of a kind is the same work, and after
// every recovery nothing acknowledged may be missing.
//
// The primary op is recover (exec to ready over snapshot + WAL tail), the
// secondary clean_open (exec to ready from the snapshot alone). For
// ops_per_s and cpu_us_per_op an op is one object restored by a recovery.
func (h *harness) runRestart(list opList, res *result) error {
	objects := float64(len(h.f.trained) + len(h.f.cold))
	cleanHost := hostSpeed{p: h.host}
	var cleanMs []float64
	sig := syscall.SIGTERM // the first stop checkpoints; nothing is written after it
	for i := 0; i < h.sc.CleanOpens; i++ {
		open, _, err := h.probedRestart(sig, &cleanHost)
		if err != nil {
			return err
		}
		cleanMs = append(cleanMs, ms(open))
		sig = syscall.SIGKILL
	}

	br := runBlock(h.conns, list.block(0))
	res.count(br.requests, br.failed, br.firstErr)
	ticks := br.points / len(h.f.trained)

	recHost := hostSpeed{p: h.host}
	var recMs, rate, cpuUs []float64
	for i := 0; i < h.sc.Recoveries; i++ {
		open, cpu, err := h.probedRestart(syscall.SIGKILL, &recHost)
		if err != nil {
			return err
		}
		if err := h.durable(ticks, res); err != nil {
			return err
		}
		recMs = append(recMs, ms(open))
		rate = append(rate, objects/open.Seconds())
		cpuUs = append(cpuUs, us(cpu)/objects)
	}
	res.setRate("ops_per_s", median(rate), "1/s", &recHost, longPhaseExponent)
	res.setTimed("primary_p50_ms", median(recMs), "ms", &recHost, longPhaseExponent)
	res.setTimed("secondary_p50_ms", median(cleanMs), "ms", &cleanHost, longPhaseExponent)
	res.setTimed("cpu_us_per_op", median(cpuUs), "us", &recHost, longPhaseExponent)
	return nil
}
