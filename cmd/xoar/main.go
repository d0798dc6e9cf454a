// Command xoar boots the platform in either profile, creates guests, runs a
// short I/O demonstration, and prints the component inventory, the boot
// milestones, and the tail of the audit log.
//
//	xoar                       # boot the disaggregated platform
//	xoar -profile dom0         # boot the stock monolithic platform
//	xoar -guests 4             # create four guests
//	xoar -restart-netback 5s   # microreboot NetBack every 5 seconds
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xoar"
	"xoar/internal/sim"
)

func main() {
	profileName := flag.String("profile", "xoar", "platform profile: xoar or dom0")
	guests := flag.Int("guests", 2, "number of guests to create")
	restart := flag.Duration("restart-netback", 0, "NetBack microreboot interval (0 disables)")
	fast := flag.Bool("fast-restarts", false, "use recovery-box (fast) restarts")
	demoMB := flag.Int("demo-mb", 64, "per-guest demo transfer size in MB")
	flag.Parse()

	profile, err := parseProfile(*profileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xoar:", err)
		flag.Usage()
		os.Exit(2)
	}

	pl, err := xoar.New(profile, xoar.Config{Seed: 1})
	if err != nil {
		fatal(err)
	}
	defer pl.Shutdown()

	tm := pl.Boot.Timings
	fmt.Printf("booted %s: console ready %.1fs, network ready %.1fs, full platform %.1fs\n\n",
		profile, tm.ConsoleReady.Seconds(), tm.PingReady.Seconds(), tm.Done.Seconds())

	fmt.Println("control-plane components:")
	for _, c := range pl.Components() {
		tag := ""
		if c.Privileged {
			tag = " [privileged]"
		}
		fmt.Printf("  %-16s %-24s %4dMB  clients=%d%s\n", c.Dom, c.Name+" ("+c.Image+")", c.MemMB, len(c.Clients), tag)
	}

	if *restart > 0 {
		if err := pl.SetNetBackRestartPolicy(xoar.RestartPolicy{
			Interval: xoar.Duration(*restart / time.Nanosecond * time.Duration(sim.Nanosecond)),
			Fast:     *fast,
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("\nNetBack microreboots every %v (fast=%v)\n", *restart, *fast)
	}

	fmt.Printf("\ncreating %d guests and fetching %dMB each:\n", *guests, *demoMB)
	for i := 0; i < *guests; i++ {
		g, err := pl.CreateGuest(xoar.GuestSpec{
			Name: fmt.Sprintf("guest-%d", i), VCPUs: 2, Net: true, Disk: true,
		})
		if err != nil {
			fatal(err)
		}
		res, err := g.Fetch(int64(*demoMB)<<20, xoar.SinkDisk)
		if err != nil {
			fatal(err)
		}
		g.WriteConsole("demo transfer complete")
		fmt.Printf("  %s (%v): %.1f MB/s to disk, %d stalls, %d retransmits\n",
			g.Name, g.Dom, res.ThroughputMBps(), res.Stalls, res.Retransmits)
	}

	if *restart > 0 {
		for _, nb := range pl.Boot.NetBacks {
			if st, ok := pl.RestartStats(nb.Dom); ok {
				fmt.Printf("\nNetBack %v: %d microreboots, %.0fms avg downtime\n",
					nb.Dom, st.Restarts, st.TotalDowntime.Seconds()/float64(max(1, st.Restarts))*1000)
			}
		}
	}

	fmt.Println("\naudit log (tail):")
	recs := pl.Log.Records()
	start := 0
	if len(recs) > 12 {
		start = len(recs) - 12
	}
	for _, r := range recs[start:] {
		fmt.Printf("  %8.2fs  %-12s %-8v %s\n", r.Time.Seconds(), r.Kind, r.Dom, r.Arg)
	}
	if i := pl.Log.Verify(); i != -1 {
		fmt.Printf("audit log CORRUPT at record %d\n", i)
	} else {
		fmt.Printf("audit log verified: %d records, hash chain intact\n", pl.Log.Len())
	}
}

// parseProfile maps the -profile flag to a platform profile.
func parseProfile(name string) (xoar.Profile, error) {
	switch name {
	case "xoar":
		return xoar.XoarShards, nil
	case "dom0":
		return xoar.MonolithicDom0, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want xoar or dom0)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xoar:", err)
	os.Exit(1)
}
