// Quickstart: boot the disaggregated platform, create one guest with a
// network interface and a disk, download a file through the split network
// driver onto the virtual disk, and look at what the platform did.
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

func run(w io.Writer) error {
	// Boot the Xoar profile: Bootstrapper orchestrates XenStore, the
	// Console Manager, the Builder, PCIBack, the driver domains and a
	// toolstack, then destroys itself.
	pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	defer pl.Shutdown()
	fmt.Fprintf(w, "platform up in %.1fs of virtual time\n", pl.Boot.Timings.Done.Seconds())

	// Create a guest. The toolstack asks the Builder to construct it, links
	// it to the NetBack and BlkBack shards, and connects the frontends.
	g, err := pl.CreateGuest(xoar.GuestSpec{
		Name:  "quickstart",
		VCPUs: 2,
		Net:   true,
		Disk:  true,
	})
	if err != nil {
		return fmt.Errorf("create guest: %w", err)
	}
	fmt.Fprintf(w, "guest %s running as %v\n", g.Name, g.Dom)

	// Download 512MB from the LAN peer straight onto the guest's disk:
	// wire -> NIC -> NetBack -> I/O ring -> netfront -> blkfront -> BlkBack
	// -> disk.
	res, err := g.Fetch(512<<20, xoar.SinkDisk)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	fmt.Fprintf(w, "fetched %dMB at %.1f MB/s\n", res.Bytes>>20, res.ThroughputMBps())

	// The guest's console is multiplexed by the Console Manager shard.
	if err := g.WriteConsole("quickstart: download complete"); err != nil {
		return fmt.Errorf("console: %w", err)
	}
	pl.Advance(xoar.Second)
	fmt.Fprintf(w, "console says: %q\n", g.ConsoleBuffer())

	// Every control-plane action landed in the tamper-evident audit log.
	fmt.Fprintf(w, "audit log: %d records, verify=%d (-1 means intact)\n",
		pl.Log.Len(), pl.Log.Verify())
	return nil
}
