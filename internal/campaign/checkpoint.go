package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"liteworp"
)

// The checkpoint is a JSON-lines file: a header identifying the job list,
// then one entry per completed run, in completion order. Entries are
// appended and fsynced as jobs finish, so a killed or failed campaign
// loses at most the runs that were still in flight. On
// open the file is compacted: entries for the current job list are kept,
// a torn trailing line or a truncated record from an interrupted write is
// quarantined (the damaged original is renamed to *.corrupt and the
// campaign proceeds from the last good entry), and a header for a
// *different* job list (other scale, other figure, edited seeds)
// invalidates everything — resuming with stale results would silently
// corrupt the aggregates.
//
// Durability contract: every append fsyncs the entry file, and create/
// rename fsync the parent directory too. The file fsync makes entry
// *contents* durable; the directory fsync makes the file's *existence*
// (and the quarantine rename) durable — on some filesystems a freshly
// created file can vanish after a crash if its directory entry was never
// synced, which would silently discard an entire campaign.

// ckptHeader identifies the job list a checkpoint belongs to.
type ckptHeader struct {
	Fingerprint string `json:"fingerprint"`
	Jobs        int    `json:"jobs"`
}

// ckptEntry records one completed run. Checkpoints written by older
// versions also mark entries with a "status" and hold failure entries
// ("status":"failed", no results); a failure restores nothing, so that
// job runs again.
type ckptEntry struct {
	Index   int               `json:"index"`
	Key     string            `json:"key"`
	Seed    int64             `json:"seed"`
	Results *liteworp.Results `json:"results,omitempty"`
}

// checkpoint is an open checkpoint file ready for appending.
type checkpoint struct {
	f   *os.File
	enc *json.Encoder
	// restored holds the per-job results recovered on open (nil where
	// the job still has to run).
	restored []*liteworp.Results
}

// fingerprint hashes the job list — keys, seeds, and every parameter —
// so a checkpoint can only resume the exact campaign that wrote it.
func fingerprint(jobs []Job) string {
	h := fnv.New64a()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s|%+v\n", j.Key, j.Params)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// syncDir fsyncs the directory containing path, making a just-created or
// just-renamed directory entry durable. Best effort: some filesystems
// refuse fsync on directories, and losing this sync only re-runs work.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync()
}

// openCheckpoint reads any resumable entries from path and rewrites the
// file compacted (header plus the kept entries), leaving it open for
// appends. An unreadably corrupt file — unparseable header, torn trailing
// line, or a record truncated mid-write — is preserved as path+".corrupt"
// (with a notice explaining why) and the campaign proceeds from whatever
// good prefix was readable, never erroring out over damage that losing a
// process mid-write can legitimately cause.
func openCheckpoint(path string, jobs []Job, notice func(string)) (*checkpoint, error) {
	fp := fingerprint(jobs)
	restored := make([]*liteworp.Results, len(jobs))
	corrupt := "" // non-empty: reason the file must be quarantined
	if data, err := os.ReadFile(path); err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		var hdr ckptHeader
		if err := dec.Decode(&hdr); err != nil {
			corrupt = fmt.Sprintf("unreadable header: %v", err)
		} else if hdr.Fingerprint == fp && hdr.Jobs == len(jobs) {
			entries := 0
			for {
				var e ckptEntry
				if err := dec.Decode(&e); err != nil {
					if err != io.EOF {
						// A torn trailing line or truncated record; keep
						// the good prefix, quarantine the evidence.
						corrupt = fmt.Sprintf("entry %d unreadable (torn or truncated write): %v", entries+1, err)
					}
					break
				}
				entries++
				if e.Index < 0 || e.Index >= len(jobs) {
					continue
				}
				if jobs[e.Index].Key != e.Key || jobs[e.Index].Params.Seed != e.Seed {
					continue
				}
				if e.Results != nil {
					restored[e.Index] = e.Results
				}
			}
		}
		// A well-formed checkpoint with a different fingerprint is not
		// corruption — it is a different campaign's state, discarded
		// wholesale by leaving restored empty.
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("campaign checkpoint %s: %w", path, err)
	}

	if corrupt != "" {
		quarantined := path + ".corrupt"
		if err := os.Rename(path, quarantined); err != nil {
			return nil, fmt.Errorf("campaign checkpoint %s: quarantine: %w", path, err)
		}
		syncDir(path)
		if notice != nil {
			notice(fmt.Sprintf("checkpoint %s quarantined to %s (%s); resuming from last good entry", path, quarantined, corrupt))
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("campaign checkpoint %s: %w", path, err)
	}
	// Make the file's directory entry durable before the first result is
	// recorded; see the durability contract above.
	syncDir(path)
	enc := json.NewEncoder(f)
	if err := enc.Encode(ckptHeader{Fingerprint: fp, Jobs: len(jobs)}); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign checkpoint %s: %w", path, err)
	}
	c := &checkpoint{f: f, enc: enc, restored: restored}
	for i, r := range restored {
		if r == nil {
			continue
		}
		if err := c.append(i, jobs[i], r); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign checkpoint %s: %w", path, err)
		}
	}
	return c, nil
}

// append records one completed run durably.
func (c *checkpoint) append(i int, job Job, res *liteworp.Results) error {
	if err := c.enc.Encode(ckptEntry{Index: i, Key: job.Key, Seed: job.Params.Seed, Results: res}); err != nil {
		return err
	}
	return c.f.Sync()
}

// close flushes a final fsync so the last entry is durable even on
// filesystems that weaken per-write sync, then releases the file.
func (c *checkpoint) close() error {
	c.f.Sync()
	return c.f.Close()
}
