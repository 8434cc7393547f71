package main

import "fmt"

// auditResult is what the answer audit found over every plan of a pass.
type auditResult struct {
	// failedPlans and wrongPlans count timed plans that failed outright
	// or carried a wrong answer.
	failedPlans, wrongPlans int
	// violations counts wrong answers anywhere, warm-up included.
	violations int
	first      string
}

func (a *auditResult) violate(format string, args ...any) {
	a.violations++
	if a.first == "" {
		a.first = fmt.Sprintf(format, args...)
	}
}

func (a *auditResult) ok() bool {
	return a.failedPlans == 0 && a.wrongPlans == 0 && a.violations == 0
}

// failed is the count of failed or wrong timed plans, plan_fail_frac's
// numerator. A violation outside the timed plans (in the warm-up, or a new
// fingerprint never reported missing) still counts once, so that a failed
// audit never reads as plan_fail_frac 0.
func (a *auditResult) failed() int {
	n := a.failedPlans + a.wrongPlans
	if n == 0 && !a.ok() {
		n = 1
	}
	return n
}

// auditPreload checks that the preload reported every base-image
// fingerprint missing: each appears exactly once and the index starts
// empty.
func auditPreload(streams []*stream) error {
	for c, s := range streams {
		for i, p := range s.plans {
			miss := s.missing[s.missOff[i]:s.missOff[i+1]]
			if s.failed[i] || len(miss) != len(p.ids) {
				return fmt.Errorf("preload client %d plan %d: %d of %d fingerprints reported missing, want all",
					c, i, len(miss), len(p.ids))
			}
			for k, m := range miss {
				if int(m) != k {
					return fmt.Errorf("preload client %d plan %d: missing list out of order", c, i)
				}
			}
		}
	}
	return nil
}

// auditStreams checks the dedup invariant over every client's plans,
// warm-up and timed alike: every fingerprint outside the base image is
// reported missing exactly once, the first time its client sends it, and
// no base-image fingerprint is ever reported missing.
func auditStreams(streams []*stream) auditResult {
	var a auditResult
	for c, s := range streams {
		seen := make([]uint8, s.newIDs)
		for i, p := range s.plans {
			timed := i >= s.warm
			if s.failed[i] {
				if timed {
					a.failedPlans++
					if a.first == "" {
						a.first = fmt.Sprintf("client %d plan %d failed: %s", c, i, s.failMsg)
					}
				} else {
					a.violate("client %d warm-up plan %d failed: %s", c, i, s.failMsg)
				}
				continue
			}
			before := a.violations
			miss := s.missing[s.missOff[i]:s.missOff[i+1]]
			next := 0
			for pos, id := range p.ids {
				reported := next < len(miss) && int(miss[next]) == pos
				if reported {
					next++
				}
				if !isNewID(id) {
					if reported {
						a.violate("client %d plan %d: base-image fingerprint %d reported missing", c, i, id)
					}
					continue
				}
				k := newIDIndex(id)
				switch {
				case reported && seen[k] > 0:
					a.violate("client %d plan %d: new fingerprint %d reported missing again", c, i, k)
				case !reported && seen[k] == 0:
					a.violate("client %d plan %d: new fingerprint %d reported present before it was stored", c, i, k)
				}
				if reported && seen[k] < 255 {
					seen[k]++
				}
			}
			if next != len(miss) {
				a.violate("client %d plan %d: reply lists indices out of order or twice", c, i)
			}
			if timed && a.violations > before {
				a.wrongPlans++
			}
		}
		for k, n := range seen {
			if n != 1 {
				a.violate("client %d: new fingerprint %d reported missing %d times, want once", c, k, n)
			}
		}
	}
	return a
}
