package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"nasgo/internal/search"
)

// logDigest is the SHA-256 of a search log's canonical JSON: encoding/json
// writes struct fields in declaration order and floats in their shortest
// exact form, so equal logs hash equally in every process (gob does not:
// its wire type IDs depend on the process's history). Eval.Workers is
// zeroed first because it only selects the host pool size, which never
// changes a result but does follow the host's core count.
func logDigest(l *search.Log) (string, error) {
	c := *l
	c.Config.Eval.Workers = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("perfbench: encode log: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// checkLog verifies the structural invariants every op's log must meet on
// any seed: each result is a Balsam job, a cache hit, or (where the
// workload admits failures) a compile failure that never ran; and where
// the workload admits none, no evaluation failed.
func checkLog(l *search.Log, allowFailed bool) error {
	neverRan := 0
	for _, r := range l.Results {
		if r.Failed && r.Attempts == 0 && !r.Cached {
			neverRan++
		}
	}
	if got, want := len(l.Results), l.Evaluations+l.CacheHits+neverRan; got != want {
		return errorf("log has %d results, want jobs %d + cache hits %d + compile failures %d",
			got, l.Evaluations, l.CacheHits, neverRan)
	}
	if !allowFailed && l.FailedEvals != 0 {
		return errorf("log has %d failed evaluations", l.FailedEvals)
	}
	return nil
}

// pinSeed is the workload seed whose op digests are pinned in pins.json.
const pinSeed = 1

// pins holds, per workload, the digests of the first ops of a pinSeed run.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Seed    uint64              `json:"seed"`
	Digests map[string][]string `json:"digests"`
}

func loadPins(b []byte) (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("perfbench: pins.json: %w", err)
	}
	return p, nil
}

// checkPin compares op i's digest against the pin, when one exists for
// this workload and seed.
func checkPin(pins pinFile, workload string, seed uint64, i int, digest string) error {
	if seed != pins.Seed {
		return nil
	}
	want := pins.Digests[workload]
	if i >= len(want) {
		return nil
	}
	if digest != want[i] {
		return errorf("%s op %d digest %s, pinned %s", workload, i, digest[:12], want[i][:12])
	}
	return nil
}

// writePins records digests as the pins of workload in the file at path,
// keeping the other workloads' pins.
func writePins(path, workload string, digests []string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := loadPins(b)
	if err != nil {
		return err
	}
	if p.Digests == nil {
		p.Digests = map[string][]string{}
	}
	p.Seed = pinSeed
	p.Digests[workload] = digests
	if b, err = json.MarshalIndent(p, "", " "); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
