// Driver restarts: Figure 6.3 live. Sweeps the NetBack microreboot interval
// from 1s to 10s in both restart modes while a guest downloads 2GB, printing
// the throughput curve the paper plots — the cost of a restart is dominated
// by TCP's retransmission timers, not the raw device downtime.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"xoar"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// throughput boots a platform, restarts NetBack every interval (never when
// 0) and returns the throughput of a 2GB download.
func throughput(interval xoar.Duration, fast bool) (float64, error) {
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
	if err != nil {
		return 0, fmt.Errorf("boot: %w", err)
	}
	defer pl.Shutdown()
	g, err := pl.CreateGuest(xoar.GuestSpec{Name: "wget", VCPUs: 2, Net: true})
	if err != nil {
		return 0, fmt.Errorf("create guest: %w", err)
	}
	if interval > 0 {
		if err := pl.SetNetBackRestartPolicy(xoar.RestartPolicy{Interval: interval, Fast: fast}); err != nil {
			return 0, fmt.Errorf("restart policy: %w", err)
		}
	}
	res, err := g.Fetch(2<<30, xoar.SinkNull)
	if err != nil {
		return 0, fmt.Errorf("fetch: %w", err)
	}
	return res.ThroughputMBps(), nil
}

func run(w io.Writer) error {
	baseline, err := throughput(0, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline (no restarts): %.1f MB/s\n\n", baseline)
	fmt.Fprintf(w, "%-10s %-16s %-16s\n", "interval", "slow (260ms)", "fast (140ms)")
	for s := 1; s <= 10; s++ {
		slow, err := throughput(xoar.Duration(s)*xoar.Second, false)
		if err != nil {
			return err
		}
		fast, err := throughput(xoar.Duration(s)*xoar.Second, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %6.1f MB/s %3.0f%% %6.1f MB/s %3.0f%%\n",
			fmt.Sprintf("%ds", s),
			slow, slow/baseline*100,
			fast, fast/baseline*100)
	}
	fmt.Fprintln(w, "\npaper: ~8% loss at 10s, ~58% at 1s (slow); fast helps most at small intervals")
	return nil
}
