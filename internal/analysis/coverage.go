// Package analysis implements the paper's closed-form coverage analysis
// (§5.1, Figures 5, 6(a), 6(b)) and cost analysis (§5.2).
//
// The coverage model: guards of a link miss a fabricated packet with the
// channel collision probability P_C; a guard alerts once it accumulates at
// least k detections among the psi fabrications an attacker commits within
// the window T; the wormhole is detected when at least gamma guards alert.
// The guard count per link follows from the lens geometry of Figure 5.
// False alarms follow the complementary process: a guard falsely suspects a
// forward when it missed the inbound packet but heard the outbound one
// (probability P_C * (1 - P_C)).
package analysis

import (
	"errors"
	"math"
)

// ErrBadParam reports an out-of-domain analysis parameter.
var ErrBadParam = errors.New("analysis: parameter out of domain")

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p), evaluated as an
// explicit sum (n is small in all of the paper's uses).
func BinomialTail(n, k int, p float64) float64 {
	if n < 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	total := 0.0
	for i := k; i <= n; i++ {
		total += math.Exp(logChoose(n, i) + float64(float64(i)*math.Log(p)) + float64(float64(n-i)*math.Log1p(-p)))
	}
	if total > 1 {
		total = 1
	}
	return total
}

func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// RegularizedIncompleteBeta computes I_x(a, b) by the continued-fraction
// method (Numerical Recipes style), the kernel behind the paper's
// incomplete-Beta expression for "at least gamma of g guards alert".
func RegularizedIncompleteBeta(x, a, b float64) float64 {
	if x < 0 || x > 1 || a <= 0 || b <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + float64(a*math.Log(x)) + float64(b*math.Log1p(-x)))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// CoverageParams are the coverage-analysis inputs (paper Fig. 6 uses
// psi = 7 fabrications in the window, k = 5 per-guard detections to cross
// the MalC threshold, gamma = 3, M = 2 colluders, Pc = 0.05 at NB = 3
// growing linearly).
type CoverageParams struct {
	// Psi is the number of fabrications an attacker commits within the
	// window T.
	Psi int
	// K is the number of detections a single guard needs before its MalC
	// crosses the threshold and it raises an alert.
	K int
	// Gamma is the detection confidence index: distinct alerting guards
	// required for isolation.
	Gamma int
	// Pc0 is the collision probability at the reference degree NB0;
	// collision probability grows linearly with the neighbor count and
	// is capped at PcMax (<= 1).
	Pc0   float64
	NB0   float64
	PcMax float64
}

// PaperCoverageParams returns the parameterization of Figures 6(a)/6(b).
func PaperCoverageParams() CoverageParams {
	return CoverageParams{Psi: 7, K: 5, Gamma: 3, Pc0: 0.05, NB0: 3, PcMax: 1}
}

// CollisionProb returns P_C at the given neighbor count under the linear
// model.
func (cp CoverageParams) CollisionProb(nb float64) float64 {
	if cp.Pc0 <= 0 || cp.NB0 <= 0 {
		return 0
	}
	p := cp.Pc0 * nb / cp.NB0
	max := cp.PcMax
	if max <= 0 || max > 1 {
		max = 1
	}
	if p > max {
		p = max
	}
	return p
}

// GuardAlertProb returns the probability that a single guard accumulates at
// least K detections among Psi fabrications when each detection is missed
// with probability pc:
//
//	P_alert = sum_{i=K}^{Psi} C(Psi, i) (1-pc)^i pc^(Psi-i)
func (cp CoverageParams) GuardAlertProb(pc float64) float64 {
	return BinomialTail(cp.Psi, cp.K, 1-pc)
}

// DetectionProb returns the probability that at least Gamma of g guards
// alert, each independently with probability pAlert. This is the paper's
//
//	P_gamma = sum_{i=gamma}^{g} C(g, i) P^i (1-P)^(g-i)
//
// which equals the regularized incomplete Beta I_P(gamma, g-gamma+1).
func (cp CoverageParams) DetectionProb(guards int, pAlert float64) float64 {
	return BinomialTail(guards, cp.Gamma, pAlert)
}

// DetectionVsNeighbors evaluates the Figure 6(a) curve: the wormhole
// detection probability as a function of the neighbor count. The guard
// count is derived from NB via the paper's Equation (I) (g = 0.51 NB), and
// the collision probability grows linearly in NB.
func (cp CoverageParams) DetectionVsNeighbors(nb float64) float64 {
	if nb <= 0 {
		return 0
	}
	guards := int(math.Floor(0.51 * nb))
	if guards < 1 {
		guards = 1
	}
	pc := cp.CollisionProb(nb)
	pAlert := cp.GuardAlertProb(pc)
	return cp.DetectionProb(guards, pAlert)
}

// FalseAlarmPerPacket returns the probability a guard falsely suspects one
// forwarded packet: it missed the packet going in (pc) but heard the
// forward coming out (1-pc).
func FalseAlarmPerPacket(pc float64) float64 {
	if pc < 0 {
		return 0
	}
	if pc > 1 {
		pc = 1
	}
	return pc * (1 - pc)
}

// GuardFalseAlarmProb returns the probability that a guard accumulates at
// least K false suspicions among Psi watched packets.
func (cp CoverageParams) GuardFalseAlarmProb(pc float64) float64 {
	return BinomialTail(cp.Psi, cp.K, FalseAlarmPerPacket(pc))
}

// FalseAlarmProb returns the probability that at least Gamma of g guards
// falsely alert about the same node.
func (cp CoverageParams) FalseAlarmProb(guards int, pc float64) float64 {
	return BinomialTail(guards, cp.Gamma, cp.GuardFalseAlarmProb(pc))
}

// FalseAlarmVsNeighbors evaluates the Figure 6(b) curve: the false-alarm
// probability as a function of the neighbor count.
func (cp CoverageParams) FalseAlarmVsNeighbors(nb float64) float64 {
	if nb <= 0 {
		return 0
	}
	guards := int(math.Floor(0.51 * nb))
	if guards < 1 {
		guards = 1
	}
	pc := cp.CollisionProb(nb)
	return cp.FalseAlarmProb(guards, pc)
}

// CurvePoint is one (x, y) sample of an analytic curve.
type CurvePoint struct {
	X, Y float64
}

// DetectionCurve samples Figure 6(a) over nb in [from, to] with the given
// step.
func (cp CoverageParams) DetectionCurve(from, to, step float64) []CurvePoint {
	return sampleCurve(from, to, step, cp.DetectionVsNeighbors)
}

// FalseAlarmCurve samples Figure 6(b) over nb in [from, to].
func (cp CoverageParams) FalseAlarmCurve(from, to, step float64) []CurvePoint {
	return sampleCurve(from, to, step, cp.FalseAlarmVsNeighbors)
}

// DetectionVsGamma evaluates the Figure 10 analytic curve: detection
// probability as a function of gamma at a fixed neighbor count.
func (cp CoverageParams) DetectionVsGamma(nb float64, gammas []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(gammas))
	for _, g := range gammas {
		c := cp
		c.Gamma = g
		out = append(out, CurvePoint{X: float64(g), Y: c.DetectionVsNeighbors(nb)})
	}
	return out
}

func sampleCurve(from, to, step float64, f func(float64) float64) []CurvePoint {
	if step <= 0 || to < from {
		return nil
	}
	var out []CurvePoint
	for x := from; x <= to+1e-9; x += step {
		out = append(out, CurvePoint{X: x, Y: f(x)})
	}
	return out
}
