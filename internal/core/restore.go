package core

// Restore accessors: the durability layer re-creates a backend by replaying
// inserts with forced handles, then pins the id counters to their
// pre-shutdown values so post-restart mints continue the original sequences.
// Both counters only ever grow; setting them backwards is a caller bug and is
// ignored to keep handle uniqueness unconditional.

// NextPointID reports the handle the next insert would mint.
func (b *base) NextPointID() PointID { return b.nextID }

// SetNextPointID pins the next handle to mint. Values at or below the
// current counter are ignored — handles must never repeat.
func (b *base) SetNextPointID(n PointID) {
	if n > b.nextID {
		b.nextID = n
	}
}

// NextClusterID reports the cluster identity the next cluster birth would
// mint.
func (b *base) NextClusterID() ClusterID { return b.nextCluster }

// SetNextClusterID pins the next cluster identity to mint. Values at or
// below the current counter are ignored.
func (b *base) SetNextClusterID(n ClusterID) {
	if n > b.nextCluster {
		b.nextCluster = n
	}
}

// RelabelClusters renames live clusters through m (a cluster absent from m
// keeps its id) and pins the next cluster identity to next, which may lie
// below the current counter: the restore path of a one-shard engine grafts
// the stored identities onto the rebuilt backend, and no live id is at or
// above next afterwards. Emits no events.
func (f *FullyDynamic) RelabelClusters(m map[ClusterID]ClusterID, next ClusterID) {
	for _, c := range f.cellOfVertex {
		if g, ok := m[c.cluster]; ok {
			c.cluster = g
		}
	}
	f.nextCluster = next
}

// RelabelClusters is FullyDynamic.RelabelClusters for SemiDynamic.
func (s *SemiDynamic) RelabelClusters(m map[ClusterID]ClusterID, next ClusterID) {
	relabelRoots(s.rootCluster, m)
	s.nextCluster = next
}

// RelabelClusters is FullyDynamic.RelabelClusters for IncDBSCAN.
func (ic *IncDBSCAN) RelabelClusters(m map[ClusterID]ClusterID, next ClusterID) {
	relabelRoots(ic.rootCluster, m)
	ic.nextCluster = next
}

func relabelRoots(roots map[int]ClusterID, m map[ClusterID]ClusterID) {
	for r, id := range roots {
		if g, ok := m[id]; ok {
			roots[r] = g
		}
	}
}
