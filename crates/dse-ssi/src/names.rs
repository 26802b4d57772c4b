//! Cluster-wide name service: symbolic names for global-memory regions.
//!
//! Part of the "unified access to resources" that a single-system image
//! promises: a process on any node can bind a name to a region and any
//! other process can resolve it, without knowing where the data lives.

use dse_api::{DseCtx, GmArray, GmElem};
use dse_msg::RegionId;

/// Bind `name` to a region from within a parallel program. Returns `false`
/// if the name was already bound (first binding wins; bindings are
/// immutable for the life of the run).
pub fn bind(ctx: &mut DseCtx<'_>, name: &str, region: RegionId) -> bool {
    ctx.shared().bind_name(name, region)
}

/// Resolve `name` to a region id, if bound.
pub fn lookup(ctx: &mut DseCtx<'_>, name: &str) -> Option<RegionId> {
    ctx.shared().lookup_name(name)
}

/// Bind a typed array under a name (stores its region; the element count
/// travels in an adjacent `<name>.len` binding-free convention — arrays
/// resolved by name must have a length known to the resolver).
pub fn bind_array<T: GmElem>(ctx: &mut DseCtx<'_>, name: &str, arr: &GmArray<T>) -> bool {
    bind(ctx, name, arr.region())
}

#[cfg(test)]
mod tests {
    use dse_api::{Distribution, DseProgram, GmArray, NodeId, ParallelApi, Platform};

    #[test]
    fn names_resolve_across_ranks() {
        DseProgram::new(Platform::linux_pentium2()).run(3, |ctx| {
            if ctx.rank() == 0 {
                // Allocation by a single rank is fine: the "collective"
                // table only requires agreement among ranks that do call.
                let arr = GmArray::<f64>::alloc(ctx, 1, Distribution::OnNode(NodeId(0)));
                assert!(super::bind_array(ctx, "answer", &arr));
                arr.set(ctx, 0, 42.0);
            }
            ctx.barrier();
            let region = super::lookup(ctx, "answer").expect("name bound");
            // Read the value through the raw region interface.
            let bytes = ctx.gm_read(region, 0, 8);
            assert_eq!(f64::from_le_bytes(bytes.try_into().unwrap()), 42.0);
            assert!(super::lookup(ctx, "missing").is_none());
        });
    }

    #[test]
    fn first_binding_wins() {
        DseProgram::new(Platform::sunos_sparc()).run(2, |ctx| {
            let arr = GmArray::<u8>::alloc(ctx, 4, Distribution::Blocked);
            let won = super::bind(ctx, "shared-name", arr.region());
            ctx.barrier();
            // Exactly one rank observed `true`… but both bound the same
            // region (collective alloc), so re-binding returns false.
            let again = super::bind(ctx, "shared-name", arr.region());
            assert!(!again);
            let _ = won;
        });
    }
}
