package main

import (
	"strings"
	"testing"

	"xoar/internal/seceval"
)

func TestSummaryInOutcomeOrder(t *testing.T) {
	byOutcome := map[seceval.Outcome]int{
		seceval.OutNotApplicable: 2,
		seceval.OutMitigated:     2,
		seceval.OutWholeHost:     1,
		seceval.OutSharedClients: 7,
		seceval.OutContained:     7,
	}
	want := "  contained            7\n" +
		"  limited-to-sharers   7\n" +
		"  whole-host           1\n" +
		"  mitigated            2\n" +
		"  not-applicable       2\n"
	// Map iteration order changes from one range to the next, so a printer
	// that ranged over the map would fail one of these rounds.
	for round := 0; round < 20; round++ {
		var b strings.Builder
		printSummary(&b, byOutcome)
		if b.String() != want {
			t.Fatalf("round %d summary:\n%s\nwant:\n%s", round, b.String(), want)
		}
	}
}
