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
	"errors"
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
	switch err := run(os.Stdout, os.Args[1:]); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, errFindings):
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "attackaudit:", err)
		os.Exit(1)
	}
}

var (
	// errUsage is run's error for a command line it refused.
	errUsage = errors.New("usage")
	// errFindings is run's error when -fuzz or -replay found something,
	// after the report said so.
	errFindings = errors.New("findings")
)

// run parses args (without the program name) and writes the report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("attackaudit", flag.ContinueOnError)
	profileName := fs.String("profile", "both", "profile to audit: xoar, dom0, or both")
	dot := fs.Bool("dot", false, "also print the shard dependency graph in Graphviz format")
	fuzzN := fs.Int("fuzz", 0, "replay this many generated hypercall sequences (seeds 1..N) and exit")
	replay := fs.Bool("replay", false, "run the attack-taxonomy scenarios and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *fuzzN > 0 {
		return runFuzz(w, *fuzzN)
	}
	if *replay {
		return runReplay(w)
	}

	profiles := []xoar.Profile{xoar.XoarShards, xoar.MonolithicDom0}
	switch *profileName {
	case "xoar":
		profiles = profiles[:1]
	case "dom0":
		profiles = profiles[1:]
	case "both":
	default:
		fmt.Fprintln(fs.Output(), "attackaudit: unknown profile", *profileName)
		return errUsage
	}

	for _, profile := range profiles {
		pl, err := xoar.New(profile, xoar.Config{Seed: 1})
		if err != nil {
			return err
		}
		attacker, err := pl.CreateGuest(xoar.GuestSpec{Name: "attacker", Net: true, Disk: true})
		if err != nil {
			return err
		}
		victim, err := pl.CreateGuest(xoar.GuestSpec{Name: "victim", Net: true, Disk: true})
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "=== %s ===\n", profile)
		tcb := pl.TCB()
		fmt.Fprintf(w, "%s\n", tcb.String())
		for _, c := range tcb.Components {
			fmt.Fprintf(w, "  trusted component: %s (%s) — %d source LoC\n", c.Name, c.Image, c.SrcLoC)
		}

		rep := pl.SecurityReport(attacker.Dom)
		fmt.Fprintf(w, "\nguest-sourced CVE containment (attacker=%v, co-tenant=%v):\n", attacker.Dom, victim.Dom)
		for _, f := range rep.Findings {
			extra := ""
			if len(f.Reached) > 0 {
				extra = fmt.Sprintf(" reaches=%v", f.Reached)
			}
			fmt.Fprintf(w, "  %-8s %-18s %-17s -> %-18s%s\n",
				f.Vuln.ID, f.Vuln.Vector, f.Vuln.Class, f.Outcome, extra)
		}
		fmt.Fprintln(w, "\nsummary:")
		printSummary(w, rep.ByOutcome)

		// Dynamic capability probes: assume each control component is fully
		// compromised and actually attempt hostile operations.
		fmt.Fprintln(w, "\ndynamic capability probes (compromised component -> capabilities actually obtained):")
		for _, c := range pl.Components() {
			probe := pl.ProbeCompromise(c.Dom, victim.Dom)
			got := probe.Obtained()
			if len(got) == 0 {
				fmt.Fprintf(w, "  %-16s clean (nothing beyond its own service)\n", c.Name)
			} else {
				fmt.Fprintf(w, "  %-16s %v\n", c.Name, got)
			}
		}

		if *dot && profile == xoar.XoarShards {
			fmt.Fprintln(w, "\ndependency graph:")
			fmt.Fprint(w, pl.Log.Dot())
		}
		fmt.Fprintln(w)
		pl.Shutdown()
	}

	// §7.1: how much of the hypervisor's own surface could leave ring 0.
	{
		pl, err := xoar.New(xoar.XoarShards, xoar.Config{Seed: 1})
		if err != nil {
			return err
		}
		if _, err := pl.CreateGuest(xoar.GuestSpec{Name: "g", Net: true, Disk: true}); err != nil {
			return err
		}
		rep := seceval.HVSplit(pl.HV.HypercallCount)
		fmt.Fprintln(w, "=== hypervisor split (§7.1 future work) ===")
		fmt.Fprintf(w, "ring-0 hypercalls: %d; deprivilegeable: %d\n", len(rep.Ring0Calls), len(rep.DeprivilegedCalls))
		fmt.Fprintf(w, "observed traffic on a booted platform: ring-0 %d calls, deprivilegeable %d calls\n\n",
			rep.Ring0Traffic, rep.DeprivilegedTraffic)
		pl.Shutdown()
	}

	// Registry overview, independent of profile.
	fmt.Fprintln(w, "=== vulnerability registry (§2.2.1) ===")
	bySrc := map[seceval.Source]int{}
	for _, v := range seceval.Registry() {
		bySrc[v.Source]++
	}
	fmt.Fprintf(w, "total studied: %d; guest-sourced: %d; admin-network: %d; host-os (excluded): %d\n",
		len(seceval.Registry()), bySrc[seceval.SrcGuest], bySrc[seceval.SrcAdminNet], bySrc[seceval.SrcHost])
	return nil
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
func runFuzz(w io.Writer, n int) error {
	bad := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		seq := attack.Generate(seed)
		res, err := attack.RunSequence(seq)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "seed %-4d persona=%-9v calls=%-2d attempted=%-2d denied=%-2d findings=%d\n",
			seed, seq.Persona, len(seq.Calls), res.Attempted, res.Denied, len(res.Findings))
		if len(res.Findings) == 0 {
			continue
		}
		bad++
		for _, f := range res.Findings {
			fmt.Fprintf(w, "  FINDING %v\n", f)
		}
		min, err := attack.Minimize(seq)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  minimized reproducer (%d calls, add to testdata/fuzz): %q\n",
			len(min.Calls), min.Encode())
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d of %d sequences produced findings\n", bad, n)
		return errFindings
	}
	fmt.Fprintf(w, "\nall %d sequences clean\n", n)
	return nil
}

// runReplay prints the §2.3 taxonomy artifact — the same table the drift
// test and the benchmark gate pin.
func runReplay(w io.Writer) error {
	tbl, err := experiments.AttackTaxonomy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s ===\n%s\n\n", tbl.ID, tbl.Title)
	for _, r := range tbl.Rows {
		fmt.Fprintf(w, "  %-55s %6g %s\n", r.Label, r.Measured, r.Unit)
	}
	fmt.Fprintln(w)
	for _, n := range tbl.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	escal := 0.0
	for _, r := range tbl.Rows {
		if len(r.Label) > 13 && r.Label[len(r.Label)-13:] == ": escalations" {
			escal += r.Measured
		}
	}
	if escal > 0 {
		fmt.Fprintf(w, "\n%g escalations — the manifest oracle found uncovered successes\n", escal)
		return errFindings
	}
	return nil
}
