package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// sprintfHash is the chain hash as this package first computed it, with
// fmt.Sprintf building the input. The strconv-built input must stay
// byte-identical to it, or saved logs stop loading.
func sprintfHash(r Record) string {
	in := fmt.Sprintf("%s|%d|%d|%s|%v|%s", r.PrevHash, r.Seq, int64(r.Time), r.Kind, r.Dom, r.Arg)
	sum := sha256.Sum256([]byte(in))
	return hex.EncodeToString(sum[:])
}

// TestSavedLogLoadsAndReplays loads testdata/saved_log.json, written by Save
// while the hash input was still built with fmt.Sprintf, and checks that
// re-appending its (Time, Kind, Dom, Arg) tuples reproduces every record.
func TestSavedLogLoadsAndReplays(t *testing.T) {
	f, err := os.Open("testdata/saved_log.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, bad, err := LoadLog(f)
	if err != nil {
		t.Fatalf("load: %v (bad=%d)", err, bad)
	}
	saved := l.Records()

	// The fixture must keep covering the edge cases it exists for.
	var none, dom0, high, negTime, noKind, noArg, pipe, long bool
	for _, r := range saved {
		none = none || r.Dom == xtypes.DomIDNone
		dom0 = dom0 || r.Dom == 0
		high = high || r.Dom >= 1<<31
		negTime = negTime || r.Time < 0
		noKind = noKind || r.Kind == ""
		noArg = noArg || r.Arg == ""
		pipe = pipe || strings.Contains(r.Arg, "|")
		long = long || len(r.Arg) > 256
	}
	if !(none && dom0 && high && negTime && noKind && noArg && pipe && long) {
		t.Fatalf("fixture lost a case: none=%v dom0=%v high=%v negTime=%v noKind=%v noArg=%v pipe=%v long=%v",
			none, dom0, high, negTime, noKind, noArg, pipe, long)
	}

	replay := NewLog()
	for _, r := range saved {
		replay.Append(r.Time, r.Kind, r.Dom, r.Arg)
	}
	for i, r := range replay.Records() {
		if r != saved[i] {
			t.Errorf("record %d replays as\n  %+v\nsaved as\n  %+v", i, r, saved[i])
		}
	}
}

// TestHashMatchesSprintfFormat is a randomized differential test of the
// hash input against the fmt.Sprintf format: extreme and negative times,
// DomIDs around DomIDNone and 2^31, and text with separators, non-ASCII,
// invalid UTF-8 and lengths on both sides of hexSum's stack buffer.
func TestHashMatchesSprintfFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", "0", "9", "|", "||", "-", " ", "%d", "%v", "dom", "é", "→", "\x00", "\xff"}
	text := func(max int) string {
		n := rng.Intn(max + 1)
		var b strings.Builder
		for b.Len() < n {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	doms := []xtypes.DomID{0, 7, 4096, xtypes.DomIDNone - 1, xtypes.DomIDNone, xtypes.DomIDNone + 1, math.MaxUint32}
	times := []sim.Time{0, -1, math.MinInt64, math.MaxInt64}

	l := NewLog()
	for i := 0; i < 2000; i++ {
		dom := xtypes.DomID(rng.Uint32())
		if rng.Intn(2) == 0 {
			dom = doms[rng.Intn(len(doms))]
		}
		tm := sim.Time(rng.Int63n(1 << 40))
		switch rng.Intn(4) {
		case 0:
			tm = -tm
		case 1:
			tm = times[rng.Intn(len(times))]
		}
		l.Append(tm, text(24), dom, text(400))
	}
	prev := ""
	for i, r := range l.Records() {
		want := sprintfHash(Record{Seq: i, Time: r.Time, Kind: r.Kind, Dom: r.Dom, Arg: r.Arg, PrevHash: prev})
		if r.PrevHash != prev || r.Hash != want {
			t.Fatalf("record %d (%+v): hash %s, fmt.Sprintf format gives %s", i, r, r.Hash, want)
		}
		prev = want
	}
	if got := l.Verify(); got != -1 {
		t.Fatalf("random log corrupt at %d", got)
	}
}

// TestLoadPinsEveryTamperedField edits each field of one middle record of a
// saved log in turn. LoadLog must blame exactly that record, so a hash
// input that dropped a field would fail here.
func TestLoadPinsEveryTamperedField(t *testing.T) {
	l := NewLog()
	for i := 0; i < 7; i++ {
		l.Append(s(i), "link-shard", xtypes.DomID(i+1), fmt.Sprintf("dom%d", i+10))
	}
	var saved bytes.Buffer
	if err := l.Save(&saved); err != nil {
		t.Fatal(err)
	}
	const mid = 3
	edits := []struct {
		field string
		edit  func(*Record)
	}{
		{"Seq", func(r *Record) { r.Seq++ }},
		{"Time", func(r *Record) { r.Time++ }},
		{"Kind", func(r *Record) { r.Kind = "unlink-shard" }},
		{"Dom", func(r *Record) { r.Dom++ }},
		{"Arg", func(r *Record) { r.Arg = "dom99" }},
		{"PrevHash", func(r *Record) { r.PrevHash = flipHex(r.PrevHash) }},
		{"Hash", func(r *Record) { r.Hash = flipHex(r.Hash) }},
	}
	decode := func() []Record {
		var recs []Record
		if err := json.Unmarshal(saved.Bytes(), &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	load := func(recs []Record) (int, error) {
		image, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		_, bad, err := LoadLog(bytes.NewReader(image))
		return bad, err
	}
	for _, e := range edits {
		recs := decode()
		e.edit(&recs[mid])
		if bad, err := load(recs); err == nil || bad != mid {
			t.Errorf("%s edited in record %d: LoadLog blamed %d (err=%v)", e.field, mid, bad, err)
		}
	}

	// A forger who re-hashes the record they edited must relink the next
	// one too; that record's Hash covers its PrevHash, so it breaks.
	recs := decode()
	recs[mid-1].Arg = "dom99"
	sum := recs[mid-1].hexSum()
	recs[mid-1].Hash = string(sum[:])
	recs[mid].PrevHash = recs[mid-1].Hash
	if bad, err := load(recs); err == nil || bad != mid {
		t.Errorf("record %d re-hashed and relinked: LoadLog blamed %d (err=%v)", mid-1, bad, err)
	}
}

// flipHex changes the first digit of a hex hash to another hex digit.
func flipHex(h string) string {
	if h[0] == '0' {
		return "1" + h[1:]
	}
	return "0" + h[1:]
}

// TestVerifyWatermarkMatchesFullRehash is a randomized differential test of
// Verify's verified prefix: random Append, Tamper and Verify steps on one
// log, each Verify compared with a from-zero re-hash of a copy. The steps
// must cover tampers below, at and above the watermark and of the last
// record, tampers that write a record's own Arg back and leave the chain
// intact again, out-of-range tampers, and Verify twice in a row after a
// failure.
func TestVerifyWatermarkMatchesFullRehash(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLog()
	var args []string  // each record's appended Arg
	var tampered []int // one entry per Tamper with a new Arg
	var below, at, above, last, outOfRange, intactAgain, repeated int
	failed, prevVerify := false, false // the last Verify failed; the last step was a Verify
	for step := 0; step < 3000; step++ {
		n, w := l.Len(), l.verified
		op := rng.Intn(20)
		switch {
		case op < 6:
			args = append(args, fmt.Sprintf("a%d", step))
			l.Append(s(step), "link-shard", xtypes.DomID(step%5+1), args[n])
		case op < 11:
			// Aim at one placement relative to the watermark; where the
			// log has none such, the random index stands.
			i := rng.Intn(n+2) - 1
			switch rng.Intn(5) {
			case 0:
				if w > 0 {
					i = rng.Intn(w)
				}
			case 1:
				i = w
			case 2:
				if n-w > 1 {
					i = w + 1 + rng.Intn(n-w-1)
				}
			case 3:
				i = n - 1
			default:
				i = n + rng.Intn(2)
				if rng.Intn(2) == 0 {
					i = -1 - rng.Intn(2)
				}
			}
			if i < 0 || i >= n {
				outOfRange++
				before := l.Records()
				l.Tamper(i, "forged")
				if !reflect.DeepEqual(l.Records(), before) || l.verified != w {
					t.Fatalf("step %d: out-of-range Tamper(%d) changed the log (watermark %d -> %d)", step, i, w, l.verified)
				}
				break
			}
			switch {
			case i < w:
				below++
			case i == w:
				at++
			default:
				above++
			}
			if i == n-1 {
				last++
			}
			l.Tamper(i, fmt.Sprintf("t%d", step))
			tampered = append(tampered, i)
		case op < 15:
			// Write a tampered record's own Arg back.
			if len(tampered) > 0 {
				k := rng.Intn(len(tampered))
				i := tampered[k]
				tampered[k] = tampered[len(tampered)-1]
				tampered = tampered[:len(tampered)-1]
				l.Tamper(i, args[i])
			}
		default:
			want := (&Log{records: l.Records()}).Verify()
			got := l.Verify()
			if got != want {
				t.Fatalf("step %d: Verify = %d, full re-hash = %d (watermark was %d of %d)", step, got, want, w, n)
			}
			if got == -1 && l.verified != l.Len() {
				t.Fatalf("step %d: Verify passed with watermark %d of %d records", step, l.verified, l.Len())
			}
			if failed && prevVerify {
				repeated++
			}
			if failed && got == -1 {
				intactAgain++
			}
			failed = got != -1
		}
		prevVerify = op >= 15
	}
	if below == 0 || at == 0 || above == 0 || last == 0 || outOfRange == 0 || intactAgain == 0 || repeated == 0 {
		t.Fatalf("steps lost a case: below=%d at=%d above=%d last=%d outOfRange=%d intactAgain=%d repeated=%d",
			below, at, above, last, outOfRange, intactAgain, repeated)
	}
}

// TestVerifyAllocatesNothing pins the allocation-free re-hash of a whole
// chain the size of a fuzz exec's: about 88 records of boot, linkage and
// privilege events. Each run resets the verified prefix, so Verify re-hashes
// every record, as it does for a log LoadLog reads.
func TestVerifyAllocatesNothing(t *testing.T) {
	l := NewLog()
	for i := 0; i < 88; i++ {
		dom := xtypes.DomID(i%12 + 1)
		switch i % 4 {
		case 0:
			l.Append(s(i), "create", dom, "netback-0")
		case 1:
			l.Append(s(i), "permit-hypercall", dom, xtypes.HyperMapForeign.String())
		case 2:
			l.Append(s(i), "link-shard", dom, xtypes.DomID(i+20).String())
		default:
			l.Append(s(i), "snapshot", dom, "65536 pages")
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		l.verified = 0
		if l.Verify() != -1 {
			t.Fatal("chain broken")
		}
	})
	if allocs != 0 {
		t.Fatalf("Verify of %d records: %v allocs, want 0", l.Len(), allocs)
	}
}
