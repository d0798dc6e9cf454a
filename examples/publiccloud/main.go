// Public cloud scenario (§3.4.1): densely packed, mutually untrusting
// tenants on one host. The example shows the three Xoar mechanisms working
// together:
//
//  1. sharing constraints — a tenant can refuse to share driver shards with
//     anyone outside its own constraint group, and VM creation fails rather
//     than violating the policy;
//  2. microreboots — NetBack is restored to a known-good state every few
//     seconds, bounding how long a compromise of it can live;
//  3. secure audit — after a compromise is detected, the audit log answers
//     "which tenants were exposed to this shard, and when?".
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"xoar"
	"xoar/internal/seceval"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 7})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer pl.Shutdown()

	// Tenant A insists on exclusive shards: its constraint tag locks the
	// NetBack/BlkBack it uses to tenant-A guests only.
	a1, err := pl.CreateGuest(xoar.GuestSpec{
		Name: "tenantA-web", Net: true, Disk: true, ConstraintTag: "tenantA",
	})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	a2, err := pl.CreateGuest(xoar.GuestSpec{
		Name: "tenantA-db", Net: true, Disk: true, ConstraintTag: "tenantA",
	})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	fmt.Fprintf(w, "tenant A running: %v, %v (shards locked to tag %q)\n", a1.Dom, a2.Dom, "tenantA")

	// Tenant B cannot be forced into tenant A's shards: with only one NIC
	// on this host, creation fails instead (§3.2.1).
	_, err = pl.CreateGuest(xoar.GuestSpec{
		Name: "tenantB-web", Net: true, ConstraintTag: "tenantB",
	})
	fmt.Fprintf(w, "tenant B placement refused as expected: %v\n", errors.Unwrap(err) != nil || err != nil)

	// Reduce the temporal attack surface: NetBack microreboots every 5s
	// using the fast (recovery box) path.
	if err := pl.SetNetBackRestartPolicy(xoar.RestartPolicy{Interval: 5 * xoar.Second, Fast: true}); err != nil {
		return fmt.Errorf("restart policy: %w", err)
	}

	// Tenant A's workload runs across the restarts.
	res, err := a1.Fetch(1<<30, xoar.SinkNull)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	nb := pl.Boot.NetBacks[0]
	st, _ := pl.RestartStats(nb.Dom)
	fmt.Fprintf(w, "1GB served at %.1f MB/s across %d NetBack microreboots (%.0fms avg downtime)\n",
		res.ThroughputMBps(), st.Restarts, st.TotalDowntime.Seconds()/float64(st.Restarts)*1000)

	// Suppose NetBack is later found to have been compromised between t1
	// and t2. Who was exposed? The hash-chained audit log knows.
	t1, t2 := xoar.Time(0), pl.Now()
	exposed := pl.DependentsOf(nb.Dom, t1, t2)
	fmt.Fprintf(w, "forensics: guests exposed to %v during the incident window: %v\n", nb.Dom, exposed)

	// And what would each registry CVE have yielded the attacker?
	rep := pl.SecurityReport(a1.Dom)
	fmt.Fprintln(w, "containment summary for a compromise originating in", a1.Dom, ":")
	outcomes := make([]seceval.Outcome, 0, len(rep.ByOutcome))
	for o := range rep.ByOutcome {
		outcomes = append(outcomes, o)
	}
	slices.Sort(outcomes) // Outcome order, so every run prints the same lines
	for _, o := range outcomes {
		fmt.Fprintf(w, "  %-20v %d CVEs\n", o, rep.ByOutcome[o])
	}
	return nil
}
