package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/tunespace"
)

// vectorJSON is the server's wire form of a tuning vector.
type vectorJSON struct {
	Bx int `json:"bx"`
	By int `json:"by"`
	Bz int `json:"bz"`
	U  int `json:"u"`
	C  int `json:"c"`
	K  int `json:"k"`
}

func (v vectorJSON) equals(t tunespace.Vector) bool {
	return v == vectorJSON{Bx: t.Bx, By: t.By, Bz: t.Bz, U: t.U, C: t.C, K: t.EffFuse()}
}

// tuneResponse is the part of a /v1/tune response the benchmark checks.
type tuneResponse struct {
	Best             vectorJSON `json:"best"`
	RankedCandidates int        `json:"ranked_candidates"`
	Hybrid           *struct {
		TopK      int     `json:"topk"`
		BestValue float64 `json:"best_value_seconds"`
	} `json:"hybrid"`
}

// served is one answered request whose model pick the output check
// recomputes in-process.
type served struct {
	req    request
	best   vectorJSON
	ranked int // candidates the server reports it ranked
}

// post sends one tune request and reads the whole reply into buf.
func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// prime answers every catalog entry once, in order, and returns the
// response bodies in catalog order.
func prime(ctx context.Context, client *http.Client, base string, cat []request) ([][]byte, error) {
	out := make([][]byte, len(cat))
	var buf bytes.Buffer
	for i, r := range cat {
		code, err := post(ctx, client, base+"/v1/tune", r.Body, &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(buf.Bytes()))
		}
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", r.Key, err)
		}
		out[i] = bytes.Clone(buf.Bytes())
	}
	return out, nil
}

// callerResult is what one closed-loop caller saw.
type callerResult struct {
	latencies []float64 // milliseconds, every attempted request
	done      []float64 // completion times, seconds since the phase began
	ok        int
	failed    int
	firstErr  string
	served    []served
}

// checkFunc judges one reply; a non-empty reason marks the op failed. It
// may append to the caller's served list.
type checkFunc func(r request, code int, body []byte, res *callerResult) string

// drive runs one closed-loop caller per sequence until the deadline: each
// caller sends its next request only after the previous reply is read.
func drive(ctx context.Context, client *http.Client, url string, seqs []sequence, begin, deadline time.Time, check checkFunc) []*callerResult {
	results := make([]*callerResult, len(seqs))
	var wg sync.WaitGroup
	for c, seq := range seqs {
		res := &callerResult{latencies: make([]float64, 0, 1<<16), done: make([]float64, 0, 1<<16)}
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				r := seq.next()
				start := time.Now()
				code, err := post(ctx, client, url, r.Body, &buf)
				end := time.Now()
				res.latencies = append(res.latencies, float64(end.Sub(start))/1e6)
				res.done = append(res.done, end.Sub(begin).Seconds())
				reason := ""
				if err != nil {
					reason = err.Error()
				} else {
					reason = check(r, code, buf.Bytes(), res)
				}
				if reason == "" {
					res.ok++
					continue
				}
				res.failed++
				if res.firstErr == "" {
					res.firstErr = r.Key + ": " + reason
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// checkFor returns the per-reply check of a workload. Hot replies must be
// byte-identical to the primed ones; cold and measure replies are decoded
// and kept for the in-process check of their model pick, and measure
// replies must carry the hybrid result with a finite measured runtime.
func checkFor(workload string, primed map[string][]byte) checkFunc {
	return func(r request, code int, body []byte, res *callerResult) string {
		if code != http.StatusOK {
			return fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body))
		}
		if workload == "hot" {
			if !bytes.Equal(body, primed[r.Key]) {
				return "cached reply differs from the primed reply"
			}
			return ""
		}
		var tr tuneResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			return "decoding reply: " + err.Error()
		}
		if workload == "measure" {
			if tr.Hybrid == nil || tr.Hybrid.TopK != measureTopK {
				return fmt.Sprintf("reply lacks hybrid.topk=%d", measureTopK)
			}
			if v := tr.Hybrid.BestValue; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Sprintf("hybrid best_value_seconds %v is not a finite positive time", v)
			}
		}
		res.served = append(res.served, served{req: r, best: tr.Best, ranked: tr.RankedCandidates})
		return ""
	}
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of ascending
// samples. ok is false unless at least minTail samples lie beyond it, so a
// tail figure is never read off a handful of points.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	return sorted[rank], n-1-rank >= minTail
}

// merged pools one field of every caller's results in ascending order.
func merged(results []*callerResult, field func(*callerResult) []float64) []float64 {
	var all []float64
	for _, r := range results {
		all = append(all, field(r)...)
	}
	sort.Float64s(all)
	return all
}

// rateSlices is how many equal-count slices of the timed phase the
// throughput median is taken over.
const rateSlices = 20

// sliceRates splits ascending completion times into rateSlices slices of
// equal request count and returns their rates, each slice timed from the
// previous slice's last completion (the first from zero). ops_per_s is their
// median, so a burst of interference moves one slice, not the figure.
func sliceRates(done []float64) []float64 {
	n := len(done)
	if n < rateSlices {
		return []float64{float64(n) / done[n-1]}
	}
	rates := make([]float64, rateSlices)
	prev := 0.0
	for i := range rates {
		lo, hi := i*n/rateSlices, (i+1)*n/rateSlices
		rates[i] = float64(hi-lo) / (done[hi-1] - prev)
		prev = done[hi-1]
	}
	return rates
}
