package field

import "math"

// This file implements the guard-area geometry from the paper's coverage
// analysis (§5.1, Fig. 5). Two neighbor nodes S and D at distance x with
// common range r are jointly covered by the lens-shaped intersection of
// their communication disks; any node in that lens is a guard for the link.

// LensArea returns the area of intersection of two disks of radius r whose
// centers are x apart. For x=0 it is the full disk area; for x>=2r it is 0.
//
//	A(x) = 2 r^2 arccos(x / 2r) - (x/2) * sqrt(4 r^2 - x^2)
func LensArea(x, r float64) float64 {
	if r <= 0 {
		return 0
	}
	if x < 0 {
		x = -x
	}
	if x >= 2*r {
		return 0
	}
	return float64(2*r*r*math.Acos(x/(2*r))) - float64((x/2)*math.Sqrt(float64(4*r*r)-float64(x*x)))
}

// MinGuardArea returns the minimum guard area over neighbor links, reached
// at x = r: A(r) = (2*pi/3 - sqrt(3)/2) r^2 ~= 1.228 r^2.
func MinGuardArea(r float64) float64 {
	return LensArea(r, r)
}

// LinkDistancePDF is the probability density of the distance x between two
// random neighbor nodes under uniform deployment: f(x) = 2x / r^2 on (0, r).
func LinkDistancePDF(x, r float64) float64 {
	if x <= 0 || x >= r || r <= 0 {
		return 0
	}
	return 2 * x / (r * r)
}

// ExpectedGuardArea returns E[A(x)] under f(x) = 2x/r^2, computed by
// numerically integrating A(x) * f(x) over (0, r) with Simpson's rule.
// The paper reports E[A] ~= 1.6 r^2.
func ExpectedGuardArea(r float64) float64 {
	if r <= 0 {
		return 0
	}
	const steps = 2000 // even
	h := r / steps
	integrand := func(x float64) float64 { return float64(LensArea(x, r) * LinkDistancePDF(x, r)) }
	sum := integrand(0) + integrand(r)
	for i := 1; i < steps; i++ {
		x := float64(float64(i) * h)
		if i%2 == 1 {
			sum += float64(4 * integrand(x))
		} else {
			sum += float64(2 * integrand(x))
		}
	}
	return sum * h / 3
}

// ExpectedGuards returns the expected number of guards per link at node
// density d (nodes per square meter): g = E[A] * d.
func ExpectedGuards(r, d float64) float64 {
	return ExpectedGuardArea(r) * d
}

// MinGuards returns the minimum expected number of guards per link:
// g_min = A(r) * d.
func MinGuards(r, d float64) float64 {
	return MinGuardArea(r) * d
}

// ExpectedNeighbors returns the expected neighbor count at density d:
// NB = pi r^2 d.
func ExpectedNeighbors(r, d float64) float64 {
	return math.Pi * r * r * d
}

// GuardsFromNeighbors converts an expected neighbor count NB into an
// expected guard count using the exact lens geometry: g = E[A]/(pi r^2) * NB
// ~= 0.59 * NB. Note: the paper's Equation (I) states E[A] ~= 1.6 r^2 and
// g ~= 0.51 NB; the exact integral of the lens area against f(x) = 2x/r^2
// evaluates to ~1.84 r^2. We expose both — this exact form, and
// PaperGuardsFromNeighbors, which uses the published constant so that the
// reproduced figures match the paper's parameterization.
func GuardsFromNeighbors(nb float64) float64 {
	// E[A]/(pi r^2) is independent of r; evaluate at r = 1.
	ratio := ExpectedGuardArea(1) / math.Pi
	return ratio * nb
}

// PaperGuardRatio is the paper's published guards-per-neighbor constant
// from Equation (I): g ~= 0.51 NB (derived from their E[A] ~= 1.6 r^2).
const PaperGuardRatio = 0.51

// PaperGuardsFromNeighbors applies the paper's Equation (I) verbatim.
func PaperGuardsFromNeighbors(nb float64) float64 {
	return PaperGuardRatio * nb
}

// DensityForNeighbors returns the node density that yields an expected
// neighbor count nb at range r.
func DensityForNeighbors(nb, r float64) float64 {
	if r <= 0 {
		return 0
	}
	return nb / (math.Pi * r * r)
}
