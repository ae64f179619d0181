package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that sends prebuilt request
// bytes and waits for the reply: a closed-loop caller.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *conn) do(req []byte) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// dialAll opens the run's connections.
func dialAll(addr string, n int) ([]*conn, error) {
	conns := make([]*conn, n)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			for _, o := range conns[:i] {
				o.close()
			}
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// blockResult is what one block of equal work measured.
type blockResult struct {
	wall      time.Duration
	requests  int
	points    int
	failed    int
	respBytes int64
	lat       [numOpKinds][]time.Duration
	firstErr  error
}

// runBlock sends each connection's list concurrently and returns when all
// have their last reply. A request fails on a transport error or a status
// outside 2xx; the block keeps going so failed_share has a denominator.
func runBlock(conns []*conn, lists [][]op) blockResult {
	parts := make([]blockResult, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(c *conn, ops []op, res *blockResult) {
			defer wg.Done()
			for k := range res.lat {
				res.lat[k] = make([]time.Duration, 0, len(ops))
			}
			for j := range ops {
				o := &ops[j]
				t0 := time.Now()
				status, body, err := c.do(o.req)
				d := time.Since(t0)
				res.requests++
				res.points += o.points()
				res.respBytes += int64(len(body))
				if err != nil || status/100 != 2 {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s: status %d err %v body %.200s", opKindNames[o.kind], status, err, body)
					}
					if err != nil {
						return // the connection is gone; the rest cannot be sent
					}
					continue
				}
				res.lat[o.kind] = append(res.lat[o.kind], d)
			}
		}(conns[i], lists[i], &parts[i])
	}
	wg.Wait()
	total := blockResult{wall: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		total.requests += p.requests
		total.points += p.points
		total.failed += p.failed
		total.respBytes += p.respBytes
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		for k := range p.lat {
			total.lat[k] = append(total.lat[k], p.lat[k]...)
		}
		// Requests a dead connection never sent still count as attempted
		// and failed.
		if unsent := len(lists[i]) - p.requests; unsent > 0 {
			total.requests += unsent
			total.failed += unsent
		}
	}
	return total
}

// quantile returns the q-quantile of sorted ds by nearest rank, 0 for an
// empty sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of a float sample; 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
