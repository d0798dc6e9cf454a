// Package audit implements the secure audit log of §3.2.2: an append-only,
// hash-chained record of platform events — VM creation and destruction,
// shard linkage, microreboots, compromises — stored "off host" (outside any
// domain's reach in the model). Queries over the log answer the forensic
// questions the paper motivates: which guests depended on a compromised
// shard during an exposure window, and which shards serviced a given guest.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// Record is one immutable log entry.
type Record struct {
	Seq  int
	Time sim.Time
	Kind string
	Dom  xtypes.DomID
	Arg  string

	// PrevHash/Hash chain the log: tampering with any record breaks
	// verification of every later one.
	PrevHash string
	Hash     string
}

// appendHashInput appends the text a record's Hash covers to b:
//
//	PrevHash|Seq|Time|Kind|Dom|Arg
//
// with Seq and Time (nanoseconds) in signed decimal and Dom in its
// xtypes.DomID text form ("dom7", "dom-none"). This layout is the chain's
// stable format: saved logs carry only the resulting hashes, so changing a
// byte of it would make every saved log fail to load.
func (r *Record) appendHashInput(b []byte) []byte {
	b = append(b, r.PrevHash...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Time), 10)
	b = append(b, '|')
	b = append(b, r.Kind...)
	b = append(b, '|')
	b = r.Dom.AppendTo(b)
	b = append(b, '|')
	return append(b, r.Arg...)
}

// hexSum returns the lowercase hex SHA-256 of the record's hash input. The
// input is built in a stack buffer sized for typical records; only an
// input longer than that (a long Kind or Arg) moves to the heap.
func (r *Record) hexSum() [2 * sha256.Size]byte {
	var in [256]byte
	sum := sha256.Sum256(r.appendHashInput(in[:0]))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return out
}

// Log is the append-only audit store.
type Log struct {
	records []Record

	// verified is how many leading records the last Verify re-hashed and
	// found intact. The next Verify starts there; Tamper, the only writer
	// of an existing record, lowers it, and Append leaves it alone.
	verified int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append adds a record, extending the hash chain.
func (l *Log) Append(t sim.Time, kind string, dom xtypes.DomID, arg string) {
	prev := ""
	if n := len(l.records); n > 0 {
		prev = l.records[n-1].Hash
	}
	r := Record{Seq: len(l.records), Time: t, Kind: kind, Dom: dom, Arg: arg, PrevHash: prev}
	sum := r.hexSum()
	r.Hash = string(sum[:])
	l.records = append(l.records, r)
}

// Len reports the number of records.
func (l *Log) Len() int { return len(l.records) }

// Records returns a copy of the log contents.
func (l *Log) Records() []Record {
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Verify checks the hash chain, returning the index of the first corrupted
// record, or -1 if intact. Each record is re-hashed by the first Verify
// after it is appended or tampered with: Verify starts past the prefix
// earlier calls found intact and advances it only past records that pass.
// A Log from LoadLog has no verified prefix, so a saved image is checked
// from record 0. Verify allocates nothing for records whose hash input fits
// hexSum's buffer.
func (l *Log) Verify() int {
	prev := ""
	if l.verified > 0 {
		prev = l.records[l.verified-1].Hash
	}
	for i := l.verified; i < len(l.records); i++ {
		r := &l.records[i]
		if r.Seq != i || r.PrevHash != prev {
			l.verified = i
			return i
		}
		if sum := r.hexSum(); string(sum[:]) != r.Hash {
			l.verified = i
			return i
		}
		prev = r.Hash
	}
	l.verified = len(l.records)
	return -1
}

// Tamper overwrites a record's argument, for demonstrating Verify in tests
// and examples. A real off-host log would not expose this. It lowers the
// verified prefix to i, so the next Verify re-hashes record i onwards; an
// out-of-range i changes nothing.
func (l *Log) Tamper(i int, arg string) {
	if i >= 0 && i < len(l.records) {
		l.records[i].Arg = arg
		l.verified = min(l.verified, i)
	}
}

// parseDomArg parses the DomID rendered by xtypes.DomID.String ("dom7").
func parseDomArg(arg string) (xtypes.DomID, bool) {
	if !strings.HasPrefix(arg, "dom") {
		return 0, false
	}
	var n uint32
	if _, err := fmt.Sscanf(arg, "dom%d", &n); err != nil {
		return 0, false
	}
	return xtypes.DomID(n), true
}

// interval is a [from, to) dependency window; to < 0 means still open.
type interval struct {
	guest    xtypes.DomID
	from, to sim.Time
}

// linkIntervals reconstructs, for one shard, the windows during which each
// guest was linked to it, from link-shard and destroy events.
func (l *Log) linkIntervals(shard xtypes.DomID) []interval {
	var out []interval
	open := make(map[xtypes.DomID]int) // guest -> index in out
	for _, r := range l.records {
		switch r.Kind {
		case "link-shard":
			if r.Dom != shard {
				continue
			}
			if g, ok := parseDomArg(r.Arg); ok {
				if _, dup := open[g]; !dup {
					open[g] = len(out)
					out = append(out, interval{guest: g, from: r.Time, to: -1})
				}
			}
		case "unlink-shard":
			if r.Dom != shard {
				continue
			}
			if g, ok := parseDomArg(r.Arg); ok {
				if i, live := open[g]; live {
					out[i].to = r.Time
					delete(open, g)
				}
			}
		case "destroy":
			// Destruction of the guest or the shard closes windows.
			if r.Dom == shard {
				for g, i := range open {
					out[i].to = r.Time
					delete(open, g)
				}
			} else if i, live := open[r.Dom]; live {
				out[i].to = r.Time
				delete(open, r.Dom)
			}
		}
	}
	return out
}

// DependentsOf lists guests that were linked to shard at any point within
// [from, to] — the "identify and notify potentially affected customers"
// query of §3.2.2.
func (l *Log) DependentsOf(shard xtypes.DomID, from, to sim.Time) []xtypes.DomID {
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, iv := range l.linkIntervals(shard) {
		end := iv.to
		if end < 0 {
			end = to
		}
		if iv.from <= to && end >= from && !seen[iv.guest] {
			seen[iv.guest] = true
			out = append(out, iv.guest)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ServicedBy lists the shards that ever serviced guest — the "which release
// of which component touched this VM" query used for retroactive
// vulnerability assessment.
func (l *Log) ServicedBy(guest xtypes.DomID) []xtypes.DomID {
	seen := make(map[xtypes.DomID]bool)
	var out []xtypes.DomID
	for _, r := range l.records {
		if r.Kind != "link-shard" {
			continue
		}
		if g, ok := parseDomArg(r.Arg); ok && g == guest && !seen[r.Dom] {
			seen[r.Dom] = true
			out = append(out, r.Dom)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dot renders the shard→guest dependency graph in Graphviz format.
func (l *Log) Dot() string {
	var b strings.Builder
	b.WriteString("digraph deps {\n")
	edges := make(map[string]bool)
	for _, r := range l.records {
		if r.Kind != "link-shard" {
			continue
		}
		if g, ok := parseDomArg(r.Arg); ok {
			e := fmt.Sprintf("  \"%v\" -> \"%v\";\n", r.Dom, g)
			if !edges[e] {
				edges[e] = true
				b.WriteString(e)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// KindCount tallies records by kind, for tests and reports.
func (l *Log) KindCount(kind string) int {
	n := 0
	for _, r := range l.records {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// Save serializes the log (the "off-host, append-only" store of §3.2.2
// materialized), preserving the hash chain so the reader can re-verify.
func (l *Log) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(l.records)
}

// LoadLog reads a saved log and verifies its hash chain before returning it;
// a tampered image is rejected with the corrupt record's index.
func LoadLog(r io.Reader) (*Log, int, error) {
	var recs []Record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, -1, fmt.Errorf("audit: load: %w", err)
	}
	l := &Log{records: recs}
	if i := l.Verify(); i != -1 {
		return nil, i, fmt.Errorf("audit: load: record %d fails verification", i)
	}
	return l, -1, nil
}
