// Live migration: two Xoar hosts on one management network. A guest with a
// large dirtied working set moves from host A to host B while (conceptually)
// running: iterative pre-copy keeps the blackout to tens of milliseconds
// while the bulk of memory crosses the wire in the background. Afterwards
// the destination toolstack re-wires the guest's devices through its own
// driver shards and I/O resumes.
//
// This is the enterprise feature the paper leans on when arguing against
// hypervisor-removal designs (§2.3.1): without an interposing platform there
// is no live migration.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"xoar"
	"xoar/internal/xtypes"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	hosts, err := xoar.NewCluster(xoar.XoarShards, xoar.Config{Seed: 21}, 2)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	src, dst := hosts[0], hosts[1]
	defer src.Shutdown()

	g, err := src.CreateGuest(xoar.GuestSpec{Name: "roamer", VCPUs: 2, Net: true, Disk: true})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	// Give the guest a working set worth moving (~200MB touched).
	d, _ := src.HV.Domain(g.Dom)
	for i := 0; i < 50000; i++ {
		d.Mem.Write(xtypes.PFN(i), []byte{byte(i)})
	}
	fmt.Fprintf(w, "guest %v on source host, %d pages touched\n", g.Dom, d.Mem.TouchedPages())

	res, err := src.MigrateGuest(g, dst)
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	st := res.Stats
	fmt.Fprintf(w, "migrated in %d pre-copy rounds: %d pages moved, total %.2fs, blackout %.0fms\n",
		st.Rounds, st.PagesCopied, st.TotalTime.Seconds(), st.Downtime.Seconds()*1000)

	// The guest now runs on the destination with its devices re-wired.
	fmt.Fprintf(w, "guest is now %v on the destination host\n", res.Guest.Dom)
	fr, err := res.Guest.Fetch(128<<20, xoar.SinkDisk)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	fmt.Fprintf(w, "post-migration I/O through the destination's shards: %.1f MB/s\n", fr.ThroughputMBps())

	// Both audit logs tell the story: departure on the source, adoption on
	// the destination.
	fmt.Fprintf(w, "source audit: destroy records = %d; destination audit: link records = %d\n",
		src.Log.KindCount("destroy"), dst.Log.KindCount("link-shard"))
	return nil
}
