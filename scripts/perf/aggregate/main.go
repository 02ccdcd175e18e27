// Command aggregate folds the raw JSON lines clusterbench -workload
// -json emits into the committed BENCH_<date>.json: runs grouped by
// cell, each cell reduced to mean/stddev over its repeats.
//
// Usage:
//
//	aggregate -in raw.jsonl -out bench/BENCH_2026-08-07.json -date 2026-08-07
//	aggregate -in raw.jsonl -capacity zipfian-nocache-closed
//	aggregate -in raw.jsonl -base bench/BENCH_old.json -out bench/BENCH_new.json
//
// The -capacity mode prints the cell's mean goodput as a bare integer —
// run.sh uses it to compute the 2x offered rate for the overload cells.
// -base merges this run's cells into an existing BENCH file (replacing
// re-measured cells, keeping the rest), so one new cell can be added
// without rerunning the whole grid.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// rawRun mirrors clusterbench's workloadResult JSON line.
type rawRun struct {
	Label      string  `json:"label"`
	Dist       string  `json:"dist"`
	Cache      bool    `json:"cache"`
	Durable    bool    `json:"durable"`
	Mode       string  `json:"mode"`
	OfferedQPS float64 `json:"offered_qps"`
	Theta      float64 `json:"theta"`
	Keys       int     `json:"keys"`
	Workers    int     `json:"workers"`
	ReadFrac   float64 `json:"read_frac"`
	ValueSize  int     `json:"value_size"`
	MaxPending int     `json:"max_pending"`
	Seed       int64   `json:"seed"`
	DurationS  float64 `json:"duration_s"`

	Ops            int64   `json:"ops"`
	Errors         int64   `json:"errors"`
	Overloads      int64   `json:"overloads"`
	Throughput     float64 `json:"throughput_ops_s"`
	Goodput        float64 `json:"goodput_ops_s"`
	ReadP50Ms      float64 `json:"read_p50_ms"`
	ReadP99Ms      float64 `json:"read_p99_ms"`
	ReadP999Ms     float64 `json:"read_p999_ms"`
	WriteP50Ms     float64 `json:"write_p50_ms"`
	WriteP99Ms     float64 `json:"write_p99_ms"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	Syncs          int64   `json:"syncs"`
	AppendsPerSync float64 `json:"appends_per_sync"`
	Sheds          int64   `json:"sheds"`
	LagMeanMs      float64 `json:"lag_mean_ms"`
	LagMaxMs       float64 `json:"lag_max_ms"`

	// Anti-entropy convergence cells (clusterbench -antientropy).
	ConvergeMs   float64 `json:"converge_ms"`
	SyncRounds   int64   `json:"sync_rounds"`
	KeysRepaired int64   `json:"keys_repaired"`
	RepairBytes  int64   `json:"repair_bytes"`
}

func (r rawRun) cell() string {
	if r.Label != "" {
		return r.Label
	}
	cache := "nocache"
	if r.Cache {
		cache = "cache"
	}
	return fmt.Sprintf("%s-%s-%s", r.Dist, cache, r.Mode)
}

// stat is one metric reduced over a cell's repeats.
type stat struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

func reduce(vals []float64) stat {
	var s stat
	n := float64(len(vals))
	if n == 0 {
		return s
	}
	for _, v := range vals {
		s.Mean += v
	}
	s.Mean /= n
	if n > 1 {
		var sq float64
		for _, v := range vals {
			d := v - s.Mean
			sq += d * d
		}
		s.Stddev = math.Sqrt(sq / (n - 1))
	}
	return s
}

// cellSummary is one aggregated grid cell in the committed file.
type cellSummary struct {
	Cell       string  `json:"cell"`
	Runs       int     `json:"runs"`
	Dist       string  `json:"dist"`
	Cache      bool    `json:"cache"`
	Durable    bool    `json:"durable,omitempty"`
	Mode       string  `json:"mode"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	Theta      float64 `json:"theta"`
	Keys       int     `json:"keys"`
	Workers    int     `json:"workers"`
	ReadFrac   float64 `json:"read_frac"`
	ValueSize  int     `json:"value_size"`
	MaxPending int     `json:"max_pending"`

	Throughput   stat    `json:"throughput_ops_s"`
	Goodput      stat    `json:"goodput_ops_s"`
	ReadP50Ms    stat    `json:"read_p50_ms"`
	ReadP99Ms    stat    `json:"read_p99_ms"`
	ReadP999Ms   stat    `json:"read_p999_ms"`
	WriteP50Ms   stat    `json:"write_p50_ms"`
	WriteP99Ms   stat    `json:"write_p99_ms"`
	LagMeanMs    stat    `json:"lag_mean_ms"`
	ErrorsMean   float64 `json:"errors_mean"`
	OverloadMean float64 `json:"overloads_mean"`
	ShedsMean    float64 `json:"sheds_mean"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// WAL microbench cells only: fsync batching factor (0 elsewhere).
	AppendsPerSync stat `json:"appends_per_sync,omitempty"`
	// Anti-entropy convergence cells only (0 elsewhere): time for Merkle
	// sync to rebuild the injected divergence, and the repair volume.
	ConvergeMs       stat    `json:"converge_ms,omitempty"`
	SyncRoundsMean   float64 `json:"sync_rounds_mean,omitempty"`
	KeysRepairedMean float64 `json:"keys_repaired_mean,omitempty"`
	RepairBytesMean  float64 `json:"repair_bytes_mean,omitempty"`
}

type benchFile struct {
	Date  string        `json:"date"`
	Note  string        `json:"note"`
	Cells []cellSummary `json:"cells"`
}

func main() {
	in := flag.String("in", "", "raw JSON-lines file from clusterbench -workload -json")
	out := flag.String("out", "", "aggregated BENCH json to write")
	date := flag.String("date", "", "date stamp recorded in the output")
	note := flag.String("note", "", "free-form note recorded in the output")
	capacity := flag.String("capacity", "", "print the mean goodput of this cell as an integer and exit")
	base := flag.String("base", "", "existing BENCH json to merge into: its cells are kept unless this run re-measures them (for adding one cell without rerunning the grid)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "aggregate: -in required")
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggregate:", err)
		os.Exit(1)
	}
	defer f.Close()

	groups := map[string][]rawRun{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r rawRun
		if err := json.Unmarshal(line, &r); err != nil {
			fmt.Fprintf(os.Stderr, "aggregate: skipping bad line: %v\n", err)
			continue
		}
		c := r.cell()
		if _, ok := groups[c]; !ok {
			order = append(order, c)
		}
		groups[c] = append(groups[c], r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "aggregate:", err)
		os.Exit(1)
	}

	if *capacity != "" {
		runs, ok := groups[*capacity]
		if !ok {
			fmt.Fprintf(os.Stderr, "aggregate: no runs for cell %q (have %v)\n", *capacity, order)
			os.Exit(1)
		}
		var goodputs []float64
		for _, r := range runs {
			goodputs = append(goodputs, r.Goodput)
		}
		fmt.Printf("%d\n", int(reduce(goodputs).Mean))
		return
	}

	bf := benchFile{Date: *date, Note: *note}
	for _, c := range order {
		runs := groups[c]
		pick := func(get func(rawRun) float64) stat {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = get(r)
			}
			return reduce(vals)
		}
		first := runs[0]
		cs := cellSummary{
			Cell: c, Runs: len(runs),
			Dist: first.Dist, Cache: first.Cache, Durable: first.Durable, Mode: first.Mode,
			OfferedQPS: first.OfferedQPS, Theta: first.Theta, Keys: first.Keys,
			Workers: first.Workers, ReadFrac: first.ReadFrac, ValueSize: first.ValueSize,
			MaxPending: first.MaxPending,

			Throughput: pick(func(r rawRun) float64 { return r.Throughput }),
			Goodput:    pick(func(r rawRun) float64 { return r.Goodput }),
			ReadP50Ms:  pick(func(r rawRun) float64 { return r.ReadP50Ms }),
			ReadP99Ms:  pick(func(r rawRun) float64 { return r.ReadP99Ms }),
			ReadP999Ms: pick(func(r rawRun) float64 { return r.ReadP999Ms }),
			WriteP50Ms: pick(func(r rawRun) float64 { return r.WriteP50Ms }),
			WriteP99Ms: pick(func(r rawRun) float64 { return r.WriteP99Ms }),
			LagMeanMs:  pick(func(r rawRun) float64 { return r.LagMeanMs }),

			AppendsPerSync: pick(func(r rawRun) float64 { return r.AppendsPerSync }),
			ConvergeMs:     pick(func(r rawRun) float64 { return r.ConvergeMs }),
		}
		var hits, lookups int64
		for _, r := range runs {
			cs.ErrorsMean += float64(r.Errors)
			cs.OverloadMean += float64(r.Overloads)
			cs.ShedsMean += float64(r.Sheds)
			cs.SyncRoundsMean += float64(r.SyncRounds)
			cs.KeysRepairedMean += float64(r.KeysRepaired)
			cs.RepairBytesMean += float64(r.RepairBytes)
			hits += r.CacheHits
			lookups += r.CacheHits + r.CacheMisses
		}
		cs.ErrorsMean /= float64(len(runs))
		cs.OverloadMean /= float64(len(runs))
		cs.ShedsMean /= float64(len(runs))
		cs.SyncRoundsMean /= float64(len(runs))
		cs.KeysRepairedMean /= float64(len(runs))
		cs.RepairBytesMean /= float64(len(runs))
		if lookups > 0 {
			cs.CacheHitRate = float64(hits) / float64(lookups)
		}
		bf.Cells = append(bf.Cells, cs)
	}
	if *base != "" {
		raw, err := os.ReadFile(*base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggregate:", err)
			os.Exit(1)
		}
		var prev benchFile
		if err := json.Unmarshal(raw, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "aggregate: bad base %s: %v\n", *base, err)
			os.Exit(1)
		}
		remeasured := map[string]bool{}
		for _, cs := range bf.Cells {
			remeasured[cs.Cell] = true
		}
		var merged []cellSummary
		for _, cs := range prev.Cells {
			if !remeasured[cs.Cell] {
				merged = append(merged, cs)
			}
		}
		bf.Cells = append(merged, bf.Cells...)
		if bf.Date == "" {
			bf.Date = prev.Date
		}
		if bf.Note == "" {
			bf.Note = prev.Note
		}
	}
	sort.SliceStable(bf.Cells, func(i, j int) bool { return bf.Cells[i].Cell < bf.Cells[j].Cell })

	enc, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "aggregate:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "aggregate:", err)
		os.Exit(1)
	}
	fmt.Printf("aggregate: %d cells -> %s\n", len(bf.Cells), *out)
}
