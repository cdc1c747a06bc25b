//! `par::on_pool` with and without the global pool. The global pool lives
//! for the whole process, so this binary holds one test, which checks the
//! inline case before building the pool.

use amgt_exec::par::on_pool;
use std::thread;

#[test]
fn on_pool_enters_the_global_pool_once() {
    let caller = thread::current().id();
    // No global pool: `op` runs inline.
    assert_eq!(on_pool(|| thread::current().id()), caller);

    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("no other test in this binary builds the global pool");

    // From outside the pool, `op` moves onto a worker; a nested call on
    // that worker runs inline, and forks inside it stay on the pool.
    let (outer, inner, index, (left, right)) = on_pool(|| {
        let outer = thread::current().id();
        let inner = on_pool(|| thread::current().id());
        let forked = rayon::join(rayon::current_thread_index, rayon::current_thread_index);
        (outer, inner, rayon::current_thread_index(), forked)
    });
    assert_ne!(outer, caller);
    assert_eq!(inner, outer);
    assert!(index.is_some_and(|i| i < 2));
    assert!(left.is_some() && right.is_some());
    assert_eq!(rayon::current_thread_index(), None);

    // A panic inside `op` resumes on the caller with its payload.
    let payload = std::panic::catch_unwind(|| on_pool(|| panic!("boom on the pool")))
        .expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on the pool"));
    assert_eq!(on_pool(|| 7), 7, "the pool keeps working after a panic");
}
