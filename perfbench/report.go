package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxFailuresShown bounds the failure messages a report prints.
const maxFailuresShown = 10

// report collects one run's outcome.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string
	// metrics holds the values of the run's metric set by name.
	metrics map[string]float64
	// notes are extra human-readable lines: sample counts, ratio bases,
	// request mixes.
	notes []string
}

func newReport(workload string, traced bool) *report {
	r := &report{workload: workload, traced: traced, metrics: map[string]float64{}}
	if traced {
		// Layers a workload does not exercise read 0.
		for _, m := range perLayer {
			r.metrics[m.Name] = 0
		}
	}
	return r
}

// op records one attempted op and its verdict.
func (r *report) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailuresShown {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies sets the op and hit percentiles (in ms) and notes their
// sample counts.
func (r *report) latencies(ops, hits []float64) {
	o, h := summarize(ops), summarize(hits)
	r.metrics["op_p50_ms"], r.metrics["op_p90_ms"] = o.P50, o.P90
	r.metrics["hit_p50_ms"], r.metrics["hit_p90_ms"] = h.P50, h.P90
	for _, x := range []struct {
		name string
		l    latency
	}{{"op", o}, {"hit", h}} {
		r.note("%s latency: p50 %.4f ms, p90 %.4f ms over %d samples (%d above p90)", x.name, x.l.P50, x.l.P90, x.l.N, x.l.Beyond90)
		if !x.l.p90OK() {
			r.note("warning: %s p90 has fewer than %d samples above it", x.name, minBeyond)
		}
	}
}

// peakRSS reads the process's peak resident set size in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable report and then, as the last line,
// the JSON result. It fails if a declared metric was not measured.
func (r *report) write(w io.Writer) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	line := resultLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s)\n", r.workload, mode)
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	var errRate ratio
	errRate.Num, errRate.Den = float64(r.failed), float64(r.attempted)
	fmt.Fprintf(w, "  %-28s %s\n", "error_rate", errRate)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// passBudget decides whether another pass fits: it always allows the
// minimum, then continues while the mean pass so far would still end
// before the deadline.
type passBudget struct {
	deadline time.Time
	min      int
	walls    []time.Duration
}

func (b *passBudget) another() bool {
	n := len(b.walls)
	if n < b.min {
		return true
	}
	var sum time.Duration
	for _, w := range b.walls {
		sum += w
	}
	return time.Now().Add(sum / time.Duration(n)).Before(b.deadline)
}

func (b *passBudget) done(d time.Duration) { b.walls = append(b.walls, d) }

// durationsS converts durations to seconds.
func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
