// Command attackaudit runs the §6.2 security evaluation in detail: it boots
// both platform profiles with two co-located tenants, injects each of the 23
// guest-sourced registry vulnerabilities, and prints the computed blast
// radius of every attack plus the TCB accounting.
//
// Two further modes drive the adversarial suite directly:
//
//	-fuzz N    replay N generated hypercall sequences (seeds 1..N) against
//	           the manifest oracle, minimizing and printing any finding
//	-replay    execute the §2.3 attack-taxonomy scenarios and print the
//	           denial counts and blast radii
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"xoar"
	"xoar/internal/attack"
	"xoar/internal/experiments"
	"xoar/internal/seceval"
)

func main() {
	profileName := flag.String("profile", "both", "profile to audit: xoar, dom0, or both")
	dot := flag.Bool("dot", false, "also print the shard dependency graph in Graphviz format")
	fuzzN := flag.Int("fuzz", 0, "replay this many generated hypercall sequences (seeds 1..N) and exit")
	replay := flag.Bool("replay", false, "run the attack-taxonomy scenarios and exit")
	flag.Parse()

	if *fuzzN > 0 {
		os.Exit(runFuzz(*fuzzN))
	}
	if *replay {
		os.Exit(runReplay())
	}

	profiles := []xoar.Profile{xoar.XoarShards, xoar.MonolithicDom0}
	switch *profileName {
	case "xoar":
		profiles = profiles[:1]
	case "dom0":
		profiles = profiles[1:]
	case "both":
	default:
		fmt.Fprintln(os.Stderr, "attackaudit: unknown profile", *profileName)
		os.Exit(2)
	}

	for _, profile := range profiles {
		pl, err := xoar.New(profile, xoar.Config{Seed: 1})
		if err != nil {
			fatal(err)
		}
		attacker, err := pl.CreateGuest(xoar.GuestSpec{Name: "attacker", Net: true, Disk: true})
		if err != nil {
			fatal(err)
		}
		victim, err := pl.CreateGuest(xoar.GuestSpec{Name: "victim", Net: true, Disk: true})
		if err != nil {
			fatal(err)
		}

		fmt.Printf("=== %s ===\n", profile)
		tcb := pl.TCB()
		fmt.Printf("%s\n", tcb.String())
		for _, c := range tcb.Components {
			fmt.Printf("  trusted component: %s (%s) — %d source LoC\n", c.Name, c.Image, c.SrcLoC)
		}

		rep := pl.SecurityReport(attacker.Dom)
		fmt.Printf("\nguest-sourced CVE containment (attacker=%v, co-tenant=%v):\n", attacker.Dom, victim.Dom)
		for _, f := range rep.Findings {
			extra := ""
			if len(f.Reached) > 0 {
				extra = fmt.Sprintf(" reaches=%v", f.Reached)
			}
			fmt.Printf("  %-8s %-18s %-17s -> %-18s%s\n",
				f.Vuln.ID, f.Vuln.Vector, f.Vuln.Class, f.Outcome, extra)
		}
		fmt.Println("\nsummary:")
		printSummary(os.Stdout, rep.ByOutcome)

		// Dynamic capability probes: assume each control component is fully
		// compromised and actually attempt hostile operations.
		fmt.Println("\ndynamic capability probes (compromised component -> capabilities actually obtained):")
		for _, c := range pl.Components() {
			probe := pl.ProbeCompromise(c.Dom, victim.Dom)
			got := probe.Obtained()
			if len(got) == 0 {
				fmt.Printf("  %-16s clean (nothing beyond its own service)\n", c.Name)
			} else {
				fmt.Printf("  %-16s %v\n", c.Name, got)
			}
		}

		if *dot && profile == xoar.XoarShards {
			fmt.Println("\ndependency graph:")
			fmt.Print(pl.Log.Dot())
		}
		fmt.Println()
		pl.Shutdown()
	}

	// §7.1: how much of the hypervisor's own surface could leave ring 0.
	{
		pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
		if err != nil {
			fatal(err)
		}
		if _, err := pl.CreateGuest(xoar.GuestSpec{Name: "g", Net: true, Disk: true}); err != nil {
			fatal(err)
		}
		rep := seceval.HVSplit(pl.HV.HypercallCount)
		fmt.Println("=== hypervisor split (§7.1 future work) ===")
		fmt.Printf("ring-0 hypercalls: %d; deprivilegeable: %d\n", len(rep.Ring0Calls), len(rep.DeprivilegedCalls))
		fmt.Printf("observed traffic on a booted platform: ring-0 %d calls, deprivilegeable %d calls\n\n",
			rep.Ring0Traffic, rep.DeprivilegedTraffic)
		pl.Shutdown()
	}

	// Registry overview, independent of profile.
	fmt.Println("=== vulnerability registry (§2.2.1) ===")
	bySrc := map[seceval.Source]int{}
	for _, v := range seceval.Registry() {
		bySrc[v.Source]++
	}
	fmt.Printf("total studied: %d; guest-sourced: %d; admin-network: %d; host-os (excluded): %d\n",
		len(seceval.Registry()), bySrc[seceval.SrcGuest], bySrc[seceval.SrcAdminNet], bySrc[seceval.SrcHost])
}

// printSummary writes the per-outcome tally in seceval.Outcome order, so
// the report reads the same on every run.
func printSummary(w io.Writer, byOutcome map[seceval.Outcome]int) {
	outcomes := make([]seceval.Outcome, 0, len(byOutcome))
	for o := range byOutcome {
		outcomes = append(outcomes, o)
	}
	slices.Sort(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(w, "  %-20s %d\n", o, byOutcome[o])
	}
}

// runFuzz is the CLI face of the seeded generator: the same sequences the
// Go fuzzer starts from, replayed one seed at a time with findings
// minimized to a checked-in-able reproducer.
func runFuzz(n int) int {
	bad := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		seq := attack.Generate(seed)
		res, err := attack.RunSequence(seq)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("seed %-4d persona=%-9v calls=%-2d attempted=%-2d denied=%-2d findings=%d\n",
			seed, seq.Persona, len(seq.Calls), res.Attempted, res.Denied, len(res.Findings))
		if len(res.Findings) == 0 {
			continue
		}
		bad++
		for _, f := range res.Findings {
			fmt.Printf("  FINDING %v\n", f)
		}
		min, err := attack.Minimize(seq)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  minimized reproducer (%d calls, add to testdata/fuzz): %q\n",
			len(min.Calls), min.Encode())
	}
	if bad > 0 {
		fmt.Printf("\n%d of %d sequences produced findings\n", bad, n)
		return 1
	}
	fmt.Printf("\nall %d sequences clean\n", n)
	return 0
}

// runReplay prints the §2.3 taxonomy artifact — the same table the drift
// test and the benchmark gate pin.
func runReplay() int {
	tbl, err := experiments.AttackTaxonomy()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== %s ===\n%s\n\n", tbl.ID, tbl.Title)
	for _, r := range tbl.Rows {
		fmt.Printf("  %-55s %6g %s\n", r.Label, r.Measured, r.Unit)
	}
	fmt.Println()
	for _, n := range tbl.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	escal := 0.0
	for _, r := range tbl.Rows {
		if len(r.Label) > 13 && r.Label[len(r.Label)-13:] == ": escalations" {
			escal += r.Measured
		}
	}
	if escal > 0 {
		fmt.Printf("\n%g escalations — the manifest oracle found uncovered successes\n", escal)
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "attackaudit:", err)
	os.Exit(1)
}
