package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// senders is the number of load threads, and so the most requests in
// flight at once: one per core of the 2-core reference machine.
const senders = 2

// arrivals returns seeded Poisson arrival offsets at rate per second over
// the window: an open loop, as independent users would send.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// request is one scheduled call of the open-loop generator.
type request struct {
	due   time.Duration // offset from the window start
	url   string
	body  []byte
	class int    // index into the workload's latency classes
	want  []byte // expected response body; nil for a new spec, checked afterwards
}

// outcome is one request's result. Latency runs from the request's due
// time, so a stall in the system, or a generator that fell behind, is
// charged to every request it delayed.
type outcome struct {
	due     time.Time
	latency time.Duration
	lag     time.Duration // send time minus due time
	client  time.Duration // send to response, as the client saw it
	body    []byte
	err     error
}

func (o outcome) ok() bool { return o.err == nil }

// newClient returns an HTTP client that keeps at most senders connections
// open per server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
	}}
}

// probeInterval spaces the probe runs during a served window: about 1% of
// one core.
const probeInterval = 100 * time.Millisecond

// servedWindow runs reqs as an open loop while the probe samples the
// machine's speed, and returns each request's outcome and the machine's
// slowness within a second of its due time. With seq set, each request
// carries its index in seqHeader.
func servedWindow(ctx context.Context, client *http.Client, reqs []request, probe *speedProbe, seq bool) (outs []outcome, slowness []float64) {
	stop := probe.sample(probeInterval)
	outs = openLoop(ctx, client, reqs, seq)
	samples := stop()
	slowness = make([]float64, len(outs))
	for i, o := range outs {
		slowness[i] = slownessAt(samples, o.due, time.Second)
	}
	return outs, slowness
}

// openLoop sends reqs on their schedule from senders threads and returns
// one outcome per request. A request whose response differs from want
// fails. With seq set, request i carries i in seqHeader.
func openLoop(ctx context.Context, client *http.Client, reqs []request, seq bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						out[i].err = ctx.Err()
						continue
					}
				}
				sent := time.Now()
				hdr := ""
				if seq {
					hdr = strconv.Itoa(i)
				}
				body, err := post(ctx, client, reqs[i].url, reqs[i].body, hdr)
				end := time.Now()
				if err == nil && reqs[i].want != nil && !bytes.Equal(body, reqs[i].want) {
					err = fmt.Errorf("response body differs from the set-up body for %s", reqs[i].body)
				}
				out[i] = outcome{due: due, latency: end.Sub(due), lag: sent.Sub(due), client: end.Sub(sent), body: body, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// post sends one JSON request and returns the body of a 200 response.
func post(ctx context.Context, client *http.Client, url string, body []byte, seq string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq != "" {
		req.Header.Set(seqHeader, seq)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// latencies returns the latencies of the outcomes of one class (class < 0:
// all) in reference-machine ms: each is divided by the machine's slowness
// around it. A failed request counts as infinitely late, so it misses every
// latency limit.
func latencies(reqs []request, outs []outcome, class int, slowness []float64) []float64 {
	var xs []float64
	for i, o := range outs {
		if class >= 0 && reqs[i].class != class {
			continue
		}
		if !o.ok() {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, ms(o.latency)/slowness[i])
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
