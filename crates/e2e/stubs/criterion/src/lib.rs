//! Empty placeholder: `criterion` is a dev-dependency of other workspace members. The
//! benchmark never builds their tests; cargo only needs the name to resolve offline.
