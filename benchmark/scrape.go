package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one /metrics exposition, keyed by the series as written
// (name plus its label set, e.g. `flix_requests_total{endpoint="query"}`).
type promSample map[string]float64

// parseProm reads the Prometheus text format: one `series value` pair per
// line, comments and blank lines skipped.  A series that appears twice is
// summed, which is how the samples of several servers are merged.
func parseProm(r io.Reader, into promSample) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		into[strings.TrimSpace(line[:i])] += v
	}
	return sc.Err()
}

// scrape fetches /metrics from every base URL and sums the series.
func scrape(urls []string) (promSample, error) {
	out := promSample{}
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		err = parseProm(resp.Body, out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return out, nil
}

// delta returns after − before per series; a series absent before counts
// from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// meanMs is the mean of a histogram family's observations in milliseconds
// for one label value: Δ_sum / Δ_count of `name{label="value"}`.
func (d promSample) meanMs(name, label, value string) float64 {
	sel := fmt.Sprintf("{%s=%q}", label, value)
	return ratio(d[name+"_sum"+sel]*1e3, d[name+"_count"+sel])
}

// sumPrefix adds up every series of one family regardless of labels.
func (d promSample) sumPrefix(name string) float64 {
	var s float64
	for k, v := range d {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
