package detector

import (
	"liteworp/internal/field"
	"liteworp/internal/packet"
)

// noneDetector is the null strategy: the monitoring plumbing runs (every
// observation is delivered and discarded) but nothing is ever accused.
// It is the honest control arm of the detector comparison — any residual
// protection it shows comes from LITEWORP's acceptance checks alone, not
// from detection.
type noneDetector struct{}

func newNoneDetector(Env, Config) Detector { return noneDetector{} }

// Name returns KindNone.
func (noneDetector) Name() string { return KindNone }

// OwnSend discards the observation.
func (noneDetector) OwnSend(*packet.Packet) {}

// Overheard discards the observation.
func (noneDetector) Overheard(*packet.Packet, int32) {}

// Announcement discards the observation.
func (noneDetector) Announcement(field.NodeID, int) {}

// Interference discards the observation.
func (noneDetector) Interference() {}
