package xoarlint

import (
	"fmt"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"xoar/internal/capability"
	"xoar/internal/xtypes"
)

// capgen derives CAPMANIFEST.json, the per-shard capability manifests, by
// composing three inputs:
//
//   - the privilege matrix privflow builds from internal/hv (which Hyper*
//     constants each entry point demands, what state it mutates),
//   - the declarative shard roles in internal/capability (which entry
//     points each shard class invokes),
//   - the §7.1 ring classification (internal/capability) and the Hyper*
//     constant enumeration read from the type-checked internal/xtypes.
//
// A shard's grant set is the union of privileges its declared operations
// demand — plus the explicitly-rationalized non-hv grants — so the boot
// whitelists that consume the manifest are provably derived from the
// analyzed source. Generation fails loudly on an op name no matrix row
// carries, on an exempt (unaudited-by-design) op, and on any enumerated
// hypercall constant missing a ring classification: the exhaustiveness
// holes that silent-default maps used to hide.

// xtypesPath is the package whose Hypercall const block is the grant
// universe.
const xtypesPath = "xoar/internal/xtypes"

const (
	riskRing0        = 3
	riskDeprivileged = 1
)

// BuildCapManifest builds the capability manifest from the loaded module.
func BuildCapManifest(pkgs []*Package) (*capability.Manifest, error) {
	matrix, err := BuildPrivMatrix(pkgs)
	if err != nil {
		return nil, err
	}
	consts, err := hyperConstants(pkgs)
	if err != nil {
		return nil, err
	}
	// Exhaustiveness: every enumerated constant must carry an explicit ring
	// classification before it can appear in any grant.
	var unclassified []string
	for name, v := range consts {
		if _, ok := capability.RingOf(v); !ok {
			unclassified = append(unclassified, name)
		}
	}
	if len(unclassified) > 0 {
		sort.Strings(unclassified)
		return nil, fmt.Errorf("xoarlint: hypercalls without a ring classification in internal/capability: %v", unclassified)
	}
	byValue := map[xtypes.Hypercall]string{}
	for name, v := range consts {
		byValue[v] = name
	}

	rows := map[string]PrivEntry{}
	for _, e := range matrix.Entrypoints {
		rows[e.Method] = e
	}

	m := &capability.Manifest{Source: "PRIVMATRIX (privflow over " + hvPath + ") x capability.Roles"}
	for _, role := range capability.Roles {
		shard, err := buildShard(role, rows, consts, byValue)
		if err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, shard)
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Role < m.Shards[j].Role })
	return m, nil
}

// buildShard resolves one role's operations against the matrix rows.
func buildShard(role capability.Role, rows map[string]PrivEntry, consts map[string]xtypes.Hypercall, byValue map[xtypes.Hypercall]string) (capability.ShardManifest, error) {
	type acc struct {
		ops     map[string]bool
		mutates map[string]bool
	}
	grants := map[xtypes.Hypercall]*acc{}
	for _, op := range role.Ops {
		row, ok := rows[op]
		if !ok {
			return capability.ShardManifest{}, fmt.Errorf("xoarlint: role %q op %q has no privilege-matrix row", role.Name, op)
		}
		if row.Exempt != "" {
			return capability.ShardManifest{}, fmt.Errorf("xoarlint: role %q op %q is exempt (%s) — exempt entry points grant nothing", role.Name, op, row.Exempt)
		}
		for _, priv := range row.Privileges {
			v, ok := consts[priv]
			if !ok {
				return capability.ShardManifest{}, fmt.Errorf("xoarlint: matrix names %s, not found among the xtypes Hypercall constants", priv)
			}
			if !v.Privileged() {
				continue // ambient calls available to every guest need no grant
			}
			a := grants[v]
			if a == nil {
				a = &acc{ops: map[string]bool{}, mutates: map[string]bool{}}
				grants[v] = a
			}
			a.ops[op] = true
			for _, root := range row.Mutates {
				a.mutates[root] = true
			}
		}
	}

	shard := capability.ShardManifest{
		Role:    role.Name,
		Doc:     role.Doc,
		IOPorts: append([]string(nil), role.IOPorts...),
	}
	sort.Strings(shard.IOPorts)

	var order []xtypes.Hypercall
	for v := range grants {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	stateRoots := map[string]bool{}
	for _, v := range order {
		a := grants[v]
		ring, _ := capability.RingOf(v)
		g := capability.Grant{
			Hypercall: byValue[v],
			Call:      v.String(),
			Ring:      ring.String(),
			Risk:      riskWeight(ring) + len(a.mutates),
			Ops:       sortedKeys(a.ops),
			Mutates:   sortedKeys(a.mutates),
		}
		for root := range a.mutates {
			stateRoots[root] = true
		}
		shard.Grants = append(shard.Grants, g)
	}
	for _, nh := range role.NonHV {
		if _, held := grants[nh.Hypercall]; held {
			return capability.ShardManifest{}, fmt.Errorf("xoarlint: role %q rationale grant %v is already demanded by its ops — drop the rationale", role.Name, nh.Hypercall)
		}
		ring, ok := capability.RingOf(nh.Hypercall)
		if !ok {
			return capability.ShardManifest{}, fmt.Errorf("xoarlint: role %q rationale grant %v has no ring classification", role.Name, nh.Hypercall)
		}
		name, ok := byValue[nh.Hypercall]
		if !ok {
			return capability.ShardManifest{}, fmt.Errorf("xoarlint: role %q rationale grant %v not among the xtypes Hypercall constants", role.Name, nh.Hypercall)
		}
		shard.Grants = append(shard.Grants, capability.Grant{
			Hypercall: name,
			Call:      nh.Hypercall.String(),
			Ring:      ring.String(),
			Risk:      riskWeight(ring),
			Rationale: nh.Why,
		})
	}
	sort.Slice(shard.Grants, func(i, j int) bool {
		vi, _ := xtypes.HypercallByName(shard.Grants[i].Call)
		vj, _ := xtypes.HypercallByName(shard.Grants[j].Call)
		return vi < vj
	})

	shard.Surface.Grants = len(shard.Grants)
	for _, g := range shard.Grants {
		if g.Ring == capability.Ring0.String() {
			shard.Surface.Ring0Grants++
		}
		shard.Surface.RiskTotal += g.Risk
	}
	shard.Surface.StateRoots = sortedKeys(stateRoots)
	return shard, nil
}

func riskWeight(r capability.Ring) int {
	if r == capability.Ring0 {
		return riskRing0
	}
	return riskDeprivileged
}

// hyperConstants reads the Hypercall constants of internal/xtypes from the
// type checker: every package-level constant of type Hypercall declared in a
// non-test file, mapped to its value, excluding the NumHypercalls sentinel.
// Enumerating from source — rather than hand-maintaining a parallel list —
// is what lets capgen fail generation the moment a new constant lands
// without a ring classification.
func hyperConstants(pkgs []*Package) (map[string]xtypes.Hypercall, error) {
	for _, p := range pkgs {
		if p.Path != xtypesPath || strings.HasSuffix(p.Name, "_test") {
			continue
		}
		out := map[string]xtypes.Hypercall{}
		for id, obj := range p.Info.Defs {
			c, ok := obj.(*types.Const)
			if !ok || id.Name == "NumHypercalls" || c.Parent() != c.Pkg().Scope() ||
				types.TypeString(c.Type(), nil) != xtypesPath+".Hypercall" ||
				strings.HasSuffix(p.Fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			v, _ := constant.Uint64Val(c.Val()) // exact: the checker fit it in a uint32
			out[id.Name] = xtypes.Hypercall(v)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("xoarlint: no Hypercall constants found in %s", xtypesPath)
		}
		// The source enumeration and the compiled sentinel must agree, or
		// the analyzed source has drifted from the xtypes this binary holds.
		if len(out) != int(xtypes.NumHypercalls) {
			return nil, fmt.Errorf("xoarlint: enumerated %d Hypercall constants, compiled NumHypercalls is %d", len(out), xtypes.NumHypercalls)
		}
		return out, nil
	}
	return nil, fmt.Errorf("xoarlint: %s not among the loaded packages", xtypesPath)
}
