// Command xoarbench regenerates the paper's evaluation: every table and
// figure of §6, printed as paper-vs-measured rows.
//
//	xoarbench                  # run everything at full scale
//	xoarbench -exp fig6.3      # one experiment
//	xoarbench -scale 0.1       # shrink workloads 10x for a quick pass
//	xoarbench -markdown        # emit EXPERIMENTS.md-style sections
//	xoarbench -metrics         # boot Xoar, run a workload, dump telemetry
//	xoarbench -metrics -json   # same, as JSON
//	xoarbench -trace out.json  # Chrome trace_event JSON of a batched boot
//	xoarbench -cluster         # serverless churn across a simulated fleet
//	xoarbench -cluster -hosts 16 -rate 2000 -guests 10000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xoar/internal/experiments"
)

func main() {
	switch err := run(os.Stdout, os.Args[1:]); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "xoarbench:", err)
		os.Exit(1)
	}
}

// errUsage is run's error for a command line it refused.
var errUsage = errors.New("usage")

// run parses args (without the program name) and writes the report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("xoarbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids: table6.1,table6.2,fig6.1,fig6.2,fig6.3,fig6.4,fig6.5,sec-tcb,sec-attacks,ablations,telemetry,boot-pipeline,cluster-churn")
	scale := fs.Float64("scale", 1.0, "workload scale factor (1.0 = the paper's sizes)")
	markdown := fs.Bool("markdown", false, "emit markdown instead of text tables")
	metrics := fs.Bool("metrics", false, "boot the Xoar profile, run a workload, and print the telemetry snapshot")
	jsonOut := fs.Bool("json", false, "with -metrics: emit the snapshot as JSON")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON (telemetry-enabled boot + batched fleet build) to this file")
	clusterRun := fs.Bool("cluster", false, "run the cluster serverless-churn study (cold-start percentiles, placement, rebalancing)")
	hosts := fs.Int("hosts", 0, "with -cluster: fleet size (default 8)")
	rate := fs.Float64("rate", 0, "with -cluster: fleet-wide guest arrivals per second (default 1000)")
	guests := fs.Int("guests", 0, "with -cluster: total short-lived guests to submit (default 5000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *clusterRun {
		cfg := experiments.DefaultClusterChurnConfig()
		if *hosts > 0 {
			cfg.Hosts = *hosts
		}
		if *rate > 0 {
			cfg.ArrivalsPerSec = *rate
		}
		if *guests > 0 {
			cfg.Guests = *guests
		}
		t, err := experiments.ClusterChurn(cfg)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if *markdown {
			fmt.Fprint(w, experiments.Markdown(t))
		} else {
			fmt.Fprint(w, experiments.Render(t))
		}
		if !*metrics && !expFlagSet(fs) {
			return nil
		}
	}

	if *traceOut != "" {
		data, err := experiments.TraceJSON()
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(w, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
		if !*metrics && !expFlagSet(fs) {
			return nil
		}
	}

	if *metrics {
		snap, err := experiments.MetricsSnapshot()
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if *jsonOut {
			out, err := snap.JSON()
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
			fmt.Fprintln(w, string(out))
		} else {
			fmt.Fprint(w, snap.Text())
		}
		// -metrics alone is a snapshot dump; run experiments only when the
		// user asked for some explicitly.
		if !expFlagSet(fs) {
			return nil
		}
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	s := experiments.Scale(*scale)

	type runner struct {
		id  string
		run func() (experiments.Table, error)
	}
	runners := []runner{
		{"table6.1", experiments.MemoryOverhead},
		{"table6.2", experiments.BootTime},
		{"fig6.1", func() (experiments.Table, error) { return experiments.Postmark(s) }},
		{"fig6.2", func() (experiments.Table, error) { return experiments.Wget(s) }},
		{"fig6.3", func() (experiments.Table, error) {
			t, err := experiments.RestartThroughput(s, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
			return t, err
		}},
		{"fig6.4", func() (experiments.Table, error) { return experiments.KernelBuild(s) }},
		{"fig6.5", func() (experiments.Table, error) { return experiments.Apache(s) }},
		{"sec-tcb", experiments.TCBSize},
		{"sec-attacks", experiments.KnownAttacks},
		{"ablations", experiments.Ablations},
		{"telemetry", experiments.Telemetry},
		{"boot-pipeline", func() (experiments.Table, error) {
			n := int(16 * *scale)
			if n < 2 {
				n = 2
			}
			return experiments.BootPipeline(n)
		}},
		{"cluster-churn", func() (experiments.Table, error) {
			cfg := experiments.DefaultClusterChurnConfig()
			cfg.Guests = int(float64(cfg.Guests) * *scale)
			if cfg.Guests < 100 {
				cfg.Guests = 100
			}
			return experiments.ClusterChurn(cfg)
		}},
	}

	ran := 0
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		t, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		if *markdown {
			fmt.Fprint(w, experiments.Markdown(t))
		} else {
			fmt.Fprint(w, experiments.Render(t))
			fmt.Fprintln(w)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(fs.Output(), "xoarbench: no experiment matches %q\n", *exp)
		return errUsage
	}
	return nil
}

// expFlagSet reports whether -exp was passed explicitly.
func expFlagSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			set = true
		}
	})
	return set
}
