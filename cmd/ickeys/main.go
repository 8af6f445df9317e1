// Command ickeys is the key-lifecycle substrate of §2 as a command-line
// tool: it establishes an (L+1)-threshold signing key among n players —
// through the trusted dealer or dealerless keygen (-dkg) — produces
// partial signatures with chosen shares, combines them, verifies the
// result, and optionally demonstrates the epoch transitions (proactive
// refresh, quorum reshare) that dynamic membership is built on.
//
// Usage:
//
//	ickeys [-scheme rsa|sim] [-bits 1024] [-l 2] [-n 5] [-signers 1,2,3] [-msg text]
//	       [-dkg] [-dkgfaults i:cheat,j:stubborn,k:silent]
//	       [-refresh] [-reshare k:n]
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"strconv"
	"strings"

	ic "innercircle"
	"innercircle/internal/cliutil"
)

// parseDKGFaults decodes "3:stubborn,5:silent" into the scripted-fault
// map DKG takes (1-based participant indices).
func parseDKGFaults(spec string, n int) (map[int]ic.DKGFault, error) {
	out := make(map[int]ic.DKGFault)
	for _, part := range cliutil.SplitCSV(spec) {
		idxStr, name, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad dkg fault %q (want index:behaviour)", part)
		}
		i, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil || i < 1 || i > n {
			return nil, fmt.Errorf("bad dkg fault index %q", idxStr)
		}
		switch strings.TrimSpace(name) {
		case "cheat":
			out[i] = ic.DKGCheatThenReveal
		case "stubborn":
			out[i] = ic.DKGCheatStubborn
		case "silent":
			out[i] = ic.DKGSilent
		default:
			return nil, fmt.Errorf("unknown dkg behaviour %q (want cheat, stubborn or silent)", name)
		}
	}
	return out, nil
}

// parseKN decodes a "k:n" reshare target.
func parseKN(spec string) (k, n int, err error) {
	kStr, nStr, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad reshare target %q (want k:n)", spec)
	}
	if k, err = strconv.Atoi(strings.TrimSpace(kStr)); err != nil || k < 1 {
		return 0, 0, fmt.Errorf("bad reshare threshold %q", kStr)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(nStr)); err != nil || n < k+1 {
		return 0, 0, fmt.Errorf("bad reshare player count %q (need n >= k+1)", nStr)
	}
	return k, n, nil
}

func epochOf(gk ic.GroupKey) uint64 {
	if e, ok := gk.(ic.Epoched); ok {
		return e.Epoch()
	}
	return 0
}

func run() error {
	var (
		scheme    = flag.String("scheme", "rsa", "signature scheme: rsa (Shoup threshold RSA) or sim (keyed MAC)")
		bits      = flag.Int("bits", 1024, "RSA modulus size")
		level     = flag.Int("l", 2, "dependability level L (L+1 partials combine)")
		n         = flag.Int("n", 5, "number of players")
		signers   = flag.String("signers", "", "comma-separated 1-based share indices (default: first L+1 holding a share)")
		msg       = flag.String("msg", "agreed value v", "message to sign")
		dkg       = flag.Bool("dkg", false, "establish the key with dealerless keygen instead of the trusted dealer")
		dkgFaults = flag.String("dkgfaults", "", "scripted DKG misbehaviour, e.g. 3:stubborn,5:silent (with -dkg)")
		refresh   = flag.Bool("refresh", false, "demonstrate proactive share refresh after signing")
		reshareKN = flag.String("reshare", "", "demonstrate a quorum reshare to k:n after signing, e.g. 3:7")
		prof      = cliutil.AddProfileFlags(flag.CommandLine)
	)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	var dealer ic.Dealer
	switch *scheme {
	case "rsa":
		dealer = ic.NewRSADealer(*bits)
	case "sim":
		dealer = ic.NewSimDealer([]byte("ickeys-demo"), *bits/8)
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}

	var gk ic.GroupKey
	var shares []ic.Signer
	if *dkg {
		gen, ok := dealer.(ic.KeyGenerator)
		if !ok {
			return fmt.Errorf("scheme %q does not support dealerless keygen", *scheme)
		}
		faults, err := parseDKGFaults(*dkgFaults, *n)
		if err != nil {
			return err
		}
		fmt.Printf("dealerless keygen of K_%d with threshold %d among %d players (%s)...\n", *level, *level, *n, *scheme)
		res, err := gen.DKG(ic.DKGConfig{K: *level, N: *n, Faults: faults})
		if err != nil {
			return err
		}
		fmt.Printf("qualification: %d complaints exchanged\n", res.Complaints)
		for _, b := range res.Blamed {
			fmt.Printf("  player %d blamed with proof (opening contradicts commitment) and excluded\n", b)
		}
		for _, s := range res.Silent {
			fmt.Printf("  player %d never dealt — excluded without proof (crash-indistinguishable)\n", s)
		}
		gk, shares = res.Key, res.Signers
	} else {
		fmt.Printf("dealing K_%d with threshold %d among %d players (%s)...\n", *level, *level, *n, *scheme)
		gk, shares, err = dealer.Deal(*level, *n)
		if err != nil {
			return err
		}
	}
	fmt.Printf("group key: %d+1 partials required, %d-byte signatures\n", gk.Threshold(), gk.SigBytes())

	var idx []int
	if *signers == "" {
		for i := 1; i <= *n && len(idx) < *level+1; i++ {
			if shares[i-1] != nil {
				idx = append(idx, i)
			}
		}
	} else {
		for _, p := range strings.Split(*signers, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 1 || v > *n {
				return fmt.Errorf("bad signer index %q", p)
			}
			if shares[v-1] == nil {
				return fmt.Errorf("player %d holds no share (excluded during keygen)", v)
			}
			idx = append(idx, v)
		}
	}

	var partials []ic.Partial
	for _, i := range idx {
		p, err := shares[i-1].PartialSign([]byte(*msg))
		if err != nil {
			return err
		}
		partials = append(partials, p)
		fmt.Printf("partial from share %d: %s...\n", i, hex.EncodeToString(p.Data[:min(8, len(p.Data))]))
	}

	sig, err := gk.Combine([]byte(*msg), partials)
	if err != nil {
		fmt.Printf("combine failed (as expected with < %d partials): %v\n", gk.Threshold()+1, err)
		return nil
	}
	fmt.Printf("combined signature (%d bytes): %s...\n", len(sig.Data), hex.EncodeToString(sig.Data[:min(16, len(sig.Data))]))
	if err := gk.Verify([]byte(*msg), sig); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Println("verification: OK — any recipient can now check that", gk.Threshold()+1, "players co-signed")

	if *refresh {
		refresher, ok := dealer.(ic.Refresher)
		if !ok {
			return fmt.Errorf("scheme %q does not support refresh", *scheme)
		}
		fmt.Println()
		fmt.Println("proactive refresh: re-randomizing every share...")
		fresh, err := refresher.Refresh(gk, shares)
		if err != nil {
			return err
		}
		if err := gk.Verify([]byte(*msg), sig); err != nil {
			return fmt.Errorf("pre-refresh signature invalidated: %w", err)
		}
		fmt.Println("the earlier combined signature still verifies (public key unchanged)")
		stale := partials[0]
		freshParts := []ic.Partial{stale}
		for i := 1; i <= *level; i++ {
			p, err := fresh[idx[i]-1].PartialSign([]byte(*msg))
			if err != nil {
				return err
			}
			freshParts = append(freshParts, p)
		}
		if _, err := gk.Combine([]byte(*msg), freshParts); err != nil {
			fmt.Println("a stale (pre-refresh) share no longer combines with fresh ones:")
			fmt.Println(" ", err)
		} else {
			return fmt.Errorf("cross-epoch combination unexpectedly succeeded")
		}
		shares = fresh
	}

	if *reshareKN != "" {
		newK, newN, err := parseKN(*reshareKN)
		if err != nil {
			return err
		}
		resharer, ok := dealer.(ic.Resharer)
		if !ok {
			return fmt.Errorf("scheme %q does not support reshare", *scheme)
		}
		fmt.Println()
		fmt.Printf("quorum reshare: moving the key to threshold %d among %d players...\n", newK, newN)
		oldEpoch := epochOf(gk)
		newShares, err := resharer.Reshare(gk, newK, newN)
		if err != nil {
			return err
		}
		fmt.Printf("key epoch %d -> %d; public key unchanged\n", oldEpoch, epochOf(gk))
		// Scheme-dependent fate of the pre-reshare signature: the RSA public
		// key survives the reshare so old traffic stays checkable; the sim
		// scheme's share keys ARE its verification state, so its old
		// signatures expire with the epoch.
		switch oldErr := gk.Verify([]byte(*msg), sig); *scheme {
		case "rsa":
			if oldErr != nil {
				return fmt.Errorf("pre-reshare signature invalidated: %w", oldErr)
			}
			fmt.Println("the earlier combined signature still verifies (old traffic stays checkable)")
		default:
			if oldErr == nil {
				return fmt.Errorf("sim signature unexpectedly survived the epoch bump")
			}
			fmt.Println("the earlier combined signature expired with the epoch (sim keys are the verification state)")
		}
		var fresh []ic.Partial
		for i := 0; i <= newK; i++ {
			p, err := newShares[i].PartialSign([]byte(*msg))
			if err != nil {
				return err
			}
			fresh = append(fresh, p)
		}
		sig2, err := gk.Combine([]byte(*msg), fresh)
		if err != nil {
			return fmt.Errorf("fresh quorum failed to sign after reshare: %w", err)
		}
		if err := gk.Verify([]byte(*msg), sig2); err != nil {
			return fmt.Errorf("post-reshare signature invalid: %w", err)
		}
		fmt.Printf("fresh %d+1 quorum signs under the same public key: OK\n", newK)
		mixed := append([]ic.Partial{partials[0]}, fresh[1:]...)
		if _, err := gk.Combine([]byte(*msg), mixed); err != nil {
			fmt.Println("a stale (pre-reshare) share does not combine with the new layout:")
			fmt.Println(" ", err)
		} else {
			return fmt.Errorf("cross-epoch combination unexpectedly succeeded")
		}
	}
	return nil
}

func main() {
	cliutil.Main("ickeys", run)
}
