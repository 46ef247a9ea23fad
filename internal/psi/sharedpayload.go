package psi

import (
	"fmt"
	"math/bits"

	"secyan/internal/cuckoo"
	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/oep"
	"secyan/internal/prf"
)

// This file implements "PSI with secret-shared payloads" (paper §5.5):
// the sender's payloads z_j are themselves additively shared between the
// parties, so they cannot enter the comparison circuit in plaintext.
// Following the paper:
//
//  1. both parties extend the shares {⟦z_j⟧}_{j≤N} with B shares of zero;
//  2. Bob draws a random permutation ξ₁ of [N+B] and an OEP (Bob as
//     programmer) re-shares the extended vector as z'_k = z_{ξ₁(k)};
//  3. the parties run PSI where the payload of y_j is the *index*
//     ξ₁⁻¹(j), and the circuit reveals to Alice, per bin i, the value
//     k_i = ξ₁⁻¹(j) on a match and k_i = ξ₁⁻¹(N+i) otherwise — a uniform
//     sample of distinct values that carries no information;
//  4. a second OEP (Alice as programmer, ξ₂(i) = k_i) maps the z' shares
//     to per-bin payload shares z''_i, which equal z_j on a match and 0
//     otherwise.
//
// The intersection indicator is still produced in shared form as in the
// plain protocol.

// idxWidth returns the circuit width for clear index outputs over [0, n).
func idxWidth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}

// IndexWidth exposes the clear-index circuit width for sets of the given
// public sizes; callers use it to choose between carrying payloads
// directly in the comparison circuit (cheaper when the payload width is
// below this) and the indexed construction.
func IndexWidth(m, n int) int {
	pr := NewParams(m, n)
	return idxWidth(pr.N + pr.B)
}

// clearIndexBinGadget is the §5.5 variant of binGadget: it reveals the
// bin's selected index in the clear to the evaluator and outputs the
// indicator in shared form. The sender's default index for the bin enters
// as a garbler-private constant.
func clearIndexBinGadget(b *gc.Builder, load, ell, idxW int) {
	akey := b.EvalInputWord(keyBits)
	sels := make([]gc.Wire, load)
	var idx gc.Word
	for j := 0; j < load; j++ {
		ykey := b.PrivateWord(keyBits)
		yidx := b.PrivateWord(idxW)
		sels[j] = b.EqPrivate(akey, ykey)
		masked := b.ANDGWordBit(yidx, sels[j])
		if j == 0 {
			idx = masked
		} else {
			idx = b.Add(idx, masked)
		}
	}
	ind := b.OrTree(sels)
	def := b.PrivateWord(idxW)
	idx = b.Add(idx, b.ANDGWordBit(def, b.Not(ind)))
	b.OutputWordToEval(idx) // in the clear: a uniformly random index

	rInd := b.GarblerInputWord(ell)
	b.OutputWordToEval(b.Sub(b.ZeroExtend(gc.Word{ind}, ell), rInd))
}

// buildClearIndexCircuit repeats clearIndexBinGadget once per bin.
func buildClearIndexCircuit(pr Params, ell, idxW int) *gc.Circuit {
	b := gc.NewBuilder()
	clearIndexBinGadget(b, pr.L, ell, idxW)
	return b.BuildSlots(pr.B)
}

// RunSharedPayloadReceiver executes §5.5 as Alice. xs are her distinct
// elements, nSender is the public size of Bob's set, and myPayShares are
// her shares of Bob's N payloads. The result carries per-bin shares of the
// indicator and payload, plus her cuckoo table.
func RunSharedPayloadReceiver(p *mpc.Party, xs []uint64, nSender int, myPayShares []uint64) (*Result, error) {
	if len(myPayShares) != nSender {
		return nil, fmt.Errorf("psi: receiver holds %d payload shares, want %d", len(myPayShares), nSender)
	}
	return runIndexedReceiver(p, xs, nSender, myPayShares, false)
}

// RunIndexedPlainReceiver is the receiver side of the plain-payload
// variant of the indexed construction (§6.5 fast path): the sender knows
// his payloads, so the first OEP is replaced by a free local shuffle on
// his side; the receiver holds zero shares throughout.
func RunIndexedPlainReceiver(p *mpc.Party, xs []uint64, nSender int) (*Result, error) {
	return runIndexedReceiver(p, xs, nSender, nil, true)
}

func runIndexedReceiver(p *mpc.Party, xs []uint64, nSender int, myPayShares []uint64, plain bool) (*Result, error) {
	pr := NewParams(len(xs), nSender)
	sp := obs.Begin("psi", "psi.indexed.recv")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(xs))()
	npb := pr.N + pr.B

	// Step 1-2: extend with zero shares; Bob permutes — via OEP when the
	// payloads are shared, locally (free) when he knows them.
	var zp []uint64
	if plain {
		zp = make([]uint64, npb)
	} else {
		ext := make([]uint64, npb)
		copy(ext, myPayShares)
		var err error
		zp, err = oep.RunPermuteHelper(p, npb, ext)
		if err != nil {
			return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
		}
	}

	// Step 3: PSI with clear index outputs.
	table, err := cuckoo.Build(p.PRG, xs)
	if err != nil {
		return nil, err
	}
	if err := p.Conn.Send(table.Seed[:]); err != nil {
		return nil, err
	}
	akeys, err := receiverKeys(table)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	idxW := idxWidth(npb)
	circ := buildClearIndexCircuit(pr, ell, idxW)
	evalBits := make([]bool, 0, pr.B*keyBits)
	for _, k := range akeys {
		evalBits = gc.AppendBits(evalBits, k, keyBits)
	}
	out, err := p.RunCircuit(circ, evalBits, nil, p.Role.Other())
	if err != nil {
		return nil, err
	}
	res := &Result{Params: pr, Table: table,
		IndShares: make([]uint64, pr.B), PayShares: make([]uint64, pr.B)}
	xi := make([]int, pr.B)
	for bin := 0; bin < pr.B; bin++ {
		off := bin * (idxW + ell)
		k := gc.UintOfBits(out[off : off+idxW])
		if k >= uint64(npb) {
			return nil, fmt.Errorf("psi: revealed index %d out of range %d", k, npb)
		}
		xi[bin] = int(k)
		res.IndShares[bin] = gc.UintOfBits(out[off+idxW : off+idxW+ell])
	}

	// Step 4: Alice programs the second OEP with ξ₂(i) = k_i.
	pays, err := oep.RunProgrammer(p, xi, npb, zp)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ2 OEP: %w", err)
	}
	res.PayShares = pays
	return res, nil
}

// RunSharedPayloadSender executes §5.5 as Bob with elements ys, his shares
// of the N payloads, and the public receiver set size mReceiver.
func RunSharedPayloadSender(p *mpc.Party, ys []uint64, myPayShares []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(myPayShares) {
		return nil, fmt.Errorf("psi: %d elements with %d payload shares", len(ys), len(myPayShares))
	}
	return runIndexedSender(p, ys, myPayShares, mReceiver, false)
}

// RunIndexedPlainSender is the sender side of the plain-payload variant:
// payloads are this party's plaintext values.
func RunIndexedPlainSender(p *mpc.Party, ys []uint64, payloads []uint64, mReceiver int) (*Result, error) {
	if len(ys) != len(payloads) {
		return nil, fmt.Errorf("psi: %d elements with %d payloads", len(ys), len(payloads))
	}
	return runIndexedSender(p, ys, payloads, mReceiver, true)
}

func runIndexedSender(p *mpc.Party, ys []uint64, myPayShares []uint64, mReceiver int, plain bool) (*Result, error) {
	pr := NewParams(mReceiver, len(ys))
	sp := obs.Begin("psi", "psi.indexed.send")
	defer sp.EndN(int64(pr.B))
	defer observeRun(pr.B, len(ys))()
	npb := pr.N + pr.B

	// Steps 1-2: extend and permute by a fresh random ξ₁ — obliviously
	// when the payloads are shared; as a free local shuffle when this
	// party knows them (its "share" is the value, the peer's is zero).
	xi1 := p.PRG.Perm(npb)
	inv := make([]uint64, npb)
	for k, src := range xi1 {
		inv[src] = uint64(k)
	}
	ext := make([]uint64, npb)
	copy(ext, myPayShares)
	var zp []uint64
	if plain {
		zp = make([]uint64, npb)
		for k := range zp {
			zp[k] = ext[xi1[k]]
		}
	} else {
		var err error
		zp, err = oep.RunPermuteProgrammer(p, xi1, ext)
		if err != nil {
			return nil, fmt.Errorf("psi: ξ1 OEP: %w", err)
		}
	}

	// Step 3: PSI with index payloads and per-bin defaults ξ₁⁻¹(N+i).
	seedMsg, err := p.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(seedMsg) != prf.SeedSize {
		return nil, fmt.Errorf("psi: bad hash seed length %d", len(seedMsg))
	}
	var seed prf.Seed
	copy(seed[:], seedMsg)

	idxPayloads := inv[:pr.N]
	keys, pays, err := senderBins(seed, pr, ys, idxPayloads)
	if err != nil {
		return nil, err
	}
	ell := p.Ring.Bits
	idxW := idxWidth(npb)
	circ := buildClearIndexCircuit(pr, ell, idxW)

	res := &Result{Params: pr,
		IndShares: make([]uint64, pr.B), PayShares: make([]uint64, pr.B)}
	garblerBits := make([]bool, 0, pr.B*ell)
	privBits := make([]bool, 0, pr.B*(pr.L*(keyBits+idxW)+idxW))
	for bin := 0; bin < pr.B; bin++ {
		for j := 0; j < pr.L; j++ {
			privBits = gc.AppendBits(privBits, keys[bin][j], keyBits)
			privBits = gc.AppendBits(privBits, pays[bin][j], idxW)
		}
		privBits = gc.AppendBits(privBits, inv[pr.N+bin], idxW)
		rInd := p.Ring.Random(p.PRG)
		res.IndShares[bin] = rInd
		garblerBits = gc.AppendBits(garblerBits, rInd, ell)
	}
	if _, err := p.RunCircuit(circ, garblerBits, privBits, p.Role); err != nil {
		return nil, err
	}

	// Step 4: helper side of Alice's ξ₂ OEP.
	paysOut, err := oep.RunHelper(p, npb, pr.B, zp)
	if err != nil {
		return nil, fmt.Errorf("psi: ξ2 OEP: %w", err)
	}
	res.PayShares = paysOut
	return res, nil
}

// BuildClearIndexCircuitForEstimate exposes the indexed comparison
// circuit construction so that cost estimators (core.ExplainOpts) can count
// its gates without running the protocol.
func BuildClearIndexCircuitForEstimate(pr Params, ell int) *gc.Circuit {
	return buildClearIndexCircuit(pr, ell, idxWidth(pr.N+pr.B))
}

// BuildDirectCircuitForEstimate exposes the direct comparison circuit
// (payload carried in the circuit, §5.4) the same way, for estimators
// and for ahead-of-time garbling in core.PrecomputeOpts.
func BuildDirectCircuitForEstimate(pr Params, ell int) *gc.Circuit {
	return buildCircuit(pr, ell)
}
